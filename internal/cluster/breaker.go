package cluster

import (
	"sync"
	"time"
)

// Breaker is a per-backend circuit breaker. It trips open after
// Threshold consecutive failures; while open, Ready reports false and
// the backend's pullers idle instead of claiming leases. After Cooldown
// elapses the breaker is half-open: trial traffic (the next lease, or a
// /healthz probe) is allowed through, a success closes the breaker, and
// a failure re-arms the cooldown without waiting for a fresh run of
// consecutive failures.
//
// Failures are fed from two sources: lease streams that fail, and the
// /healthz prober (Scheduler.ProbeHealth). Both call Success/Failure;
// the breaker does not distinguish them — an unhealthy answer to either
// is evidence the backend cannot serve.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	fails int
	open  bool
	until time.Time

	opens int64
}

func newBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Ready reports whether traffic may be sent: true when closed, and true
// again once an open breaker's cooldown has elapsed (half-open trial).
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open || !b.now().Before(b.until)
}

// Success records a healthy response and closes the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.open = false
}

// Failure records an unhealthy response, tripping the breaker at the
// threshold and re-arming the cooldown when a half-open trial fails.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails < b.threshold {
		return
	}
	now := b.now()
	if !b.open || !now.Before(b.until) {
		// Fresh trip, or a failed half-open trial: each counts as one
		// open transition.
		b.opens++
	}
	b.open = true
	b.until = now.Add(b.cooldown)
}

// State renders the breaker state for stats: closed, open, or half-open.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return "closed"
	case b.now().Before(b.until):
		return "open"
	default:
		return "half-open"
	}
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
