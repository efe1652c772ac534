package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Options configures a Cluster. The zero value selects sane defaults.
type Options struct {
	// Seed is the study seed sent with every measure request. nil
	// defaults to 42, the committed dataset's seed; a pointer (rather
	// than treating 0 as unset) keeps seed 0 a usable seed.
	Seed *int64
	// BatchSize is the number of cells per measure request; <= 0 selects
	// 61, one configuration's full benchmark row.
	BatchSize int
	// MaxAttempts bounds tries of one batch against one backend
	// (first attempt plus retries); <= 0 selects 3.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between retries; they default to 50ms and 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HedgeDelay is how long a batch may straggle before a duplicate is
	// sent to the next-ranked backend; <= 0 disables hedging. Defaults
	// to 0 (callers opt in; the fullstudy command sets it).
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker; <= 0 selects 3.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects traffic
	// before allowing a half-open trial; <= 0 selects 5s.
	BreakerCooldown time.Duration
	// RequestTimeout is the per-request deadline; <= 0 selects 5m
	// (a cold 61-cell batch computes a JVM benchmark row).
	RequestTimeout time.Duration
	// Workers bounds concurrent in-flight batch requests when
	// MeasureBatch is called with workers <= 0; <= 0 selects
	// 4 per backend.
	Workers int
	// HTTPClient overrides the transport; nil selects a dedicated
	// client with sensible connection pooling.
	HTTPClient *http.Client
	// Tracer records coordinator spans (routing, attempts, retries,
	// hedges, failovers); nil disables span capture. Tracing is a pure
	// side channel: study bytes are identical with or without it.
	Tracer *telemetry.Tracer
}

func (o Options) withDefaults(backends int) Options {
	if o.Seed == nil {
		s := int64(42)
		o.Seed = &s
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 61
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Minute
	}
	if o.Workers <= 0 {
		o.Workers = 4 * backends
	}
	return o
}

// Cluster coordinates the study across N powerperfd backends: it shards
// cells with rendezvous hashing, wraps every batch in retries with
// jittered exponential backoff, hedges stragglers to a second backend,
// trips per-backend circuit breakers, and fails a dead backend's cells
// over to the survivors. MeasureBatch satisfies the same contract as
// harness.MeasureBatch, so everything built on the local harness — the
// CSV streamers in particular — runs unchanged against a fleet.
type Cluster struct {
	opts     Options
	seed     int64
	router   *Router
	clients  map[string]*Client
	breakers map[string]*Breaker
	resolver *Resolver
	tracer   *telemetry.Tracer
	logger   *slog.Logger

	batchesSent atomic.Int64
	retries     atomic.Int64
	hedgesFired atomic.Int64
	hedgeWins   atomic.Int64
	failovers   atomic.Int64
	cellsDone   atomic.Int64
	attr        *attribution
}

// New builds a cluster over the given backend base URLs.
func New(backends []string, opts Options) (*Cluster, error) {
	router := NewRouter(backends)
	members := router.Members()
	if len(members) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	opts = opts.withDefaults(len(members))
	hc := opts.HTTPClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = opts.Workers
		hc = &http.Client{Transport: tr}
	}
	cl := &Cluster{
		opts:     opts,
		seed:     *opts.Seed,
		router:   router,
		clients:  make(map[string]*Client, len(members)),
		breakers: make(map[string]*Breaker, len(members)),
		resolver: NewResolver(),
		tracer:   opts.Tracer,
		logger:   telemetry.Logger("cluster"),
		attr:     newAttribution(members),
	}
	for _, m := range members {
		cl.clients[m] = NewClient(m, hc, opts.RequestTimeout)
		cl.breakers[m] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return cl, nil
}

// Backends returns the member set in sorted order.
func (cl *Cluster) Backends() []string { return cl.router.Members() }

// Tracer returns the coordinator's span recorder (nil when tracing is
// disabled).
func (cl *Cluster) Tracer() *telemetry.Tracer { return cl.tracer }

// cellRequest renders a job as an explicit wire cell.
func cellRequest(j harness.Job) service.CellRequest {
	cfg := j.CP.Config
	return service.CellRequest{
		Benchmark: j.Bench.Name,
		Processor: j.CP.Proc.Name,
		Config: &service.ConfigJSON{
			Cores: cfg.Cores, SMTWays: cfg.SMTWays, ClockGHz: cfg.ClockGHz, Turbo: cfg.Turbo,
		},
	}
}

// MeasureBatch measures jobs across the fleet and returns them in job
// order, satisfying the harness.MeasureBatch contract: results are
// bit-identical to a local harness run, the first permanent error
// cancels the batch, and ctx aborts at batch granularity. workers <= 0
// selects Options.Workers concurrent in-flight requests.
func (cl *Cluster) MeasureBatch(ctx context.Context, jobs []harness.Job, workers int) ([]*harness.Measurement, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = cl.opts.Workers
	}

	// The batch root span: every routing decision, attempt, retry,
	// hedge, and failover below parents under it, and backends adopt
	// its trace id via header propagation — one trace covers the whole
	// distributed batch.
	ctx, batchSpan := cl.tracer.StartSpan(ctx, "cluster.MeasureBatch",
		telemetry.Int("jobs", len(jobs)), telemetry.Int("workers", workers))
	defer batchSpan.End()

	out := make([]*harness.Measurement, len(jobs))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	// Mutex, not atomic.Value: concurrent failures carry heterogeneous
	// concrete error types, which atomic.Value.CompareAndSwap rejects by
	// panicking.
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	// dispatch groups the given job indices by their highest-ranked
	// live backend (rendezvous order, skipping excluded members and
	// open breakers), chunks each group to BatchSize, and launches the
	// chunks. A chunk whose backend dies is re-dispatched with that
	// backend excluded — the rendezvous property guarantees only the
	// dead backend's cells move.
	var dispatch func(idxs []int, excluded map[string]bool)
	var run func(backend string, idxs []int, excluded map[string]bool)

	dispatch = func(idxs []int, excluded map[string]bool) {
		_, routeSpan := cl.tracer.StartSpan(ctx, "cluster.route",
			telemetry.Int("cells", len(idxs)), telemetry.Int("excluded", len(excluded)))
		defer routeSpan.End()
		groups := make(map[string][]int)
		for _, i := range idxs {
			key := routeKey(cl.seed, jobs[i])
			be := cl.router.RouteExcluding(key, excluded)
			if be == "" {
				fail(fmt.Errorf("cluster: no live backend for %s on %s (all %d excluded)",
					jobs[i].Bench.Name, jobs[i].CP, len(cl.clients)))
				return
			}
			// Prefer a backend whose breaker is ready; an open breaker
			// reroutes to the next rank without marking the member
			// excluded for good.
			if !cl.breakers[be].Ready() {
				ex := make(map[string]bool, len(excluded)+1)
				for k := range excluded {
					ex[k] = true
				}
				ex[be] = true
				if alt := cl.router.RouteExcluding(key, ex); alt != "" {
					routeSpan.Annotate(telemetry.String("breaker_reroute", be+"->"+alt))
					be = alt
				}
			}
			groups[be] = append(groups[be], i)
		}
		for be, g := range groups {
			routeSpan.Annotate(telemetry.String("backend", be), telemetry.Int("backend_cells", len(g)))
			for len(g) > 0 {
				n := cl.opts.BatchSize
				if n > len(g) {
					n = len(g)
				}
				chunk := g[:n]
				g = g[n:]
				wg.Add(1)
				go run(be, chunk, excluded)
			}
		}
	}

	run = func(backend string, idxs []int, excluded map[string]bool) {
		defer wg.Done()
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
			return
		}
		err := cl.tryBatch(ctx, backend, idxs, jobs, out, excluded)
		<-sem
		if err == nil {
			return
		}
		if permanent(err) || ctx.Err() != nil {
			fail(err)
			return
		}
		// The backend is down (retries exhausted or breaker open): fail
		// its cells over to the next-ranked survivors.
		cl.failovers.Add(1)
		cl.attr.get(backend).failedOver.Add(1)
		_, foSpan := cl.tracer.StartSpan(ctx, "cluster.failover",
			telemetry.String("from", backend),
			telemetry.Int("cells", len(idxs)),
			telemetry.String("cause", err.Error()))
		cl.logger.WarnContext(ctx, "failover",
			slog.String("from", backend), slog.Int("cells", len(idxs)), slog.Any("cause", err))
		ex := make(map[string]bool, len(excluded)+1)
		for k := range excluded {
			ex[k] = true
		}
		ex[backend] = true
		if len(ex) >= len(cl.clients) {
			foSpan.End()
			fail(err)
			return
		}
		dispatch(idxs, ex)
		foSpan.End()
	}

	dispatch(seq(len(jobs)), nil)
	wg.Wait()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, m := range out {
		if m == nil {
			return nil, fmt.Errorf("cluster: job %d (%s on %s) not measured",
				i, jobs[i].Bench.Name, jobs[i].CP)
		}
	}
	return out, nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// errBreakerOpen marks a batch skipped because its backend's breaker
// rejected traffic; the caller fails the cells over like any other
// transient backend failure.
type errBreakerOpen struct{ backend string }

func (e errBreakerOpen) Error() string {
	return "cluster: breaker open for " + e.backend
}

// tryBatch runs one chunk against one backend with retries and hedging,
// writing reconstructed measurements into out on success.
func (cl *Cluster) tryBatch(ctx context.Context, backend string, idxs []int, jobs []harness.Job, out []*harness.Measurement, excluded map[string]bool) error {
	req := &service.MeasureRequest{
		Seed:   &cl.seed,
		Detail: service.DetailFull,
		Cells:  make([]service.CellRequest, len(idxs)),
	}
	for i, idx := range idxs {
		req.Cells[i] = cellRequest(jobs[idx])
	}
	hedge := cl.hedgeTarget(backend, jobs[idxs[0]], excluded)

	var lastErr error
	for attempt := 0; attempt < cl.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			cl.retries.Add(1)
			cl.logger.InfoContext(ctx, "retry",
				slog.String("backend", backend), slog.Int("attempt", attempt+1),
				slog.Int("cells", len(idxs)), slog.Any("cause", lastErr))
			_, boSpan := cl.tracer.StartSpan(ctx, "cluster.backoff",
				telemetry.String("backend", backend), telemetry.Int("attempt", attempt+1))
			err := cl.backoff(ctx, attempt)
			boSpan.End()
			if err != nil {
				return err
			}
		}
		if !cl.breakers[backend].Ready() {
			_, brSpan := cl.tracer.StartSpan(ctx, "cluster.breaker_open",
				telemetry.String("backend", backend))
			brSpan.End()
			if lastErr != nil {
				return lastErr
			}
			return errBreakerOpen{backend}
		}
		cl.batchesSent.Add(1)
		attemptCtx, atSpan := cl.tracer.StartSpan(ctx, "cluster.attempt",
			telemetry.String("backend", backend),
			telemetry.Int("attempt", attempt+1),
			telemetry.Int("cells", len(idxs)))
		resp, winner, err := cl.measureOnce(attemptCtx, backend, hedge, req)
		if err != nil {
			atSpan.Annotate(telemetry.String("error", err.Error()))
			atSpan.End()
			if permanent(err) || ctx.Err() != nil {
				return err
			}
			lastErr = err
			continue
		}
		atSpan.Annotate(telemetry.String("winner", winner))
		atSpan.End()
		for i, idx := range idxs {
			m, err := cl.resolver.MeasurementFromCell(&resp.Cells[i])
			if err != nil {
				return err
			}
			out[idx] = m
		}
		cl.cellsDone.Add(int64(len(idxs)))
		return nil
	}
	return lastErr
}

// hedgeTarget picks the duplicate destination for a straggling batch:
// the batch's next-ranked backend (every cell in a chunk shares its
// first rank, so the representative job's second rank is the natural
// second home for the whole chunk). Members already excluded by
// failover are skipped — hedging to a backend known dead would waste
// the duplicate and buy back no tail latency.
func (cl *Cluster) hedgeTarget(primary string, j harness.Job, excluded map[string]bool) string {
	if cl.opts.HedgeDelay <= 0 || len(cl.clients) < 2 {
		return ""
	}
	for _, m := range cl.router.Rank(routeKey(cl.seed, j)) {
		if m != primary && !excluded[m] {
			return m
		}
	}
	return ""
}

// jitteredBackoff is the delay before retry attempt (1-based): an
// exponential base capped at max, with full jitter on the upper half so
// retry waves never synchronize across chunks or pullers while the
// exponential floor is preserved. Shared by the rendezvous coordinator
// and the work-stealing scheduler.
func jitteredBackoff(base, max time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// backoff sleeps the jittered exponential delay for the given attempt
// (1-based), or returns early with ctx's error.
func (cl *Cluster) backoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(jitteredBackoff(cl.opts.BackoffBase, cl.opts.BackoffMax, attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Reference builds the Section 2.6 normalization table from cluster
// measurements — bit-identical to a local harness.Reference() at the
// same seed, because both build it through harness.ReferenceFrom over
// bit-identical measurements.
func (cl *Cluster) Reference(ctx context.Context, workers int) (*harness.Reference, error) {
	return harness.ReferenceFrom(ctx, cl, workers)
}

// ProbeHealth hits every backend's /healthz once and feeds the
// breakers: an unhealthy or unreachable backend accumulates failures
// (tripping its breaker at the threshold), a healthy one closes its
// breaker — which is also how a recovered backend rejoins the rotation.
func (cl *Cluster) ProbeHealth(ctx context.Context) {
	probeBackends(ctx, cl.clients, cl.breakers)
}

// probeBackends probes every client's /healthz concurrently and feeds
// the matching breakers; shared by both coordinators.
func probeBackends(ctx context.Context, clients map[string]*Client, breakers map[string]*Breaker) {
	var wg sync.WaitGroup
	for be, c := range clients {
		wg.Add(1)
		go func(be string, c *Client) {
			defer wg.Done()
			if err := c.Healthz(ctx); err != nil && ctx.Err() == nil {
				breakers[be].Failure()
			} else if err == nil {
				breakers[be].Success()
			}
		}(be, c)
	}
	wg.Wait()
}

// StartProber probes health on the given interval until ctx is done.
func (cl *Cluster) StartProber(ctx context.Context, interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cl.ProbeHealth(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Stats is the coordinator-side counter snapshot.
type Stats struct {
	Backends      []BackendStats `json:"backends"`
	BatchesSent   int64          `json:"batches_sent"`
	CellsMeasured int64          `json:"cells_measured"`
	Retries       int64          `json:"retries"`
	HedgesFired   int64          `json:"hedges_fired"`
	HedgeWins     int64          `json:"hedge_wins"`
	Failovers     int64          `json:"failovers"`
	BreakerOpens  int64          `json:"breaker_opens"`
}

// BackendStats is one backend's resilience state plus its measured
// request-latency distribution (from the coordinator's vantage point:
// queueing, network, and backend compute together).
type BackendStats struct {
	URL      string  `json:"url"`
	State    string  `json:"breaker_state"`
	Opens    int64   `json:"breaker_opens"`
	Requests int64   `json:"requests"`
	P50Ms    float64 `json:"latency_p50_ms"`
	P90Ms    float64 `json:"latency_p90_ms"`
	P99Ms    float64 `json:"latency_p99_ms"`

	// SLO attribution: resilience interventions charged against this
	// backend. HedgedAway/HedgeLosses/FailedOver are coordinator-side
	// (rendezvous cluster); StolenFrom/LeaseFailures are scheduler-side.
	HedgedAway    int64 `json:"hedged_away,omitempty"`
	HedgeLosses   int64 `json:"hedge_losses,omitempty"`
	FailedOver    int64 `json:"failed_over,omitempty"`
	StolenFrom    int64 `json:"stolen_from,omitempty"`
	LeaseFailures int64 `json:"lease_failures,omitempty"`
}

// Stats snapshots the cluster counters.
func (cl *Cluster) Stats() Stats {
	st := Stats{
		BatchesSent:   cl.batchesSent.Load(),
		CellsMeasured: cl.cellsDone.Load(),
		Retries:       cl.retries.Load(),
		HedgesFired:   cl.hedgesFired.Load(),
		HedgeWins:     cl.hedgeWins.Load(),
		Failovers:     cl.failovers.Load(),
	}
	for _, m := range cl.router.Members() {
		b := cl.breakers[m]
		opens := b.Opens()
		lat := cl.clients[m].lat.Summary()
		at := cl.attr.get(m)
		st.Backends = append(st.Backends, BackendStats{
			URL:         m,
			State:       b.State(),
			Opens:       opens,
			Requests:    lat.Count,
			P50Ms:       float64(lat.P50) / 1e6,
			P90Ms:       float64(lat.P90) / 1e6,
			P99Ms:       float64(lat.P99) / 1e6,
			HedgedAway:  at.hedgedAway.Load(),
			HedgeLosses: at.hedgeLosses.Load(),
			FailedOver:  at.failedOver.Load(),
		})
		st.BreakerOpens += opens
	}
	return st
}

// WriteMetrics renders the coordinator counters in the Prometheus text
// exposition format, the client-side sibling of powerperfd's /metricsz.
func (cl *Cluster) WriteMetrics(w io.Writer) {
	st := cl.Stats()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n" +
			name + " " + strconv.FormatInt(v, 10) + "\n")
	}
	counter("powerperf_cluster_batches_sent_total", "Measure batches sent to backends.", st.BatchesSent)
	counter("powerperf_cluster_cells_measured_total", "Cells measured successfully.", st.CellsMeasured)
	counter("powerperf_cluster_retries_total", "Batch retries after transient failures.", st.Retries)
	counter("powerperf_cluster_hedges_fired_total", "Straggling batches duplicated to a second backend.", st.HedgesFired)
	counter("powerperf_cluster_hedge_wins_total", "Hedged duplicates that answered first.", st.HedgeWins)
	counter("powerperf_cluster_failovers_total", "Chunks re-routed off a dead backend.", st.Failovers)
	counter("powerperf_cluster_breaker_opens_total", "Circuit breaker open transitions across backends.", st.BreakerOpens)
	name := "powerperf_cluster_breaker_state"
	b.WriteString("# HELP " + name + " Breaker state per backend (0 closed, 1 half-open, 2 open).\n# TYPE " + name + " gauge\n")
	for _, be := range st.Backends {
		v := 0
		switch be.State {
		case "half-open":
			v = 1
		case "open":
			v = 2
		}
		// PromQuote, not raw interpolation: a backend URL with a quote or
		// backslash must not corrupt the page (round-trip guard).
		b.WriteString(name + "{backend=" + telemetry.PromQuote(be.URL) + "} " + strconv.Itoa(v) + "\n")
	}
	// Per-backend SLO attribution: which member each intervention was
	// charged against.
	perBackend := func(name, help string, value func(BackendStats) int64) {
		b.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " counter\n")
		for _, be := range st.Backends {
			b.WriteString(name + "{backend=" + telemetry.PromQuote(be.URL) + "} " +
				strconv.FormatInt(value(be), 10) + "\n")
		}
	}
	perBackend("powerperf_cluster_hedged_away_total",
		"Batches duplicated away because this primary straggled.",
		func(be BackendStats) int64 { return be.HedgedAway })
	perBackend("powerperf_cluster_hedge_losses_total",
		"Hedge duplicates that answered before this primary.",
		func(be BackendStats) int64 { return be.HedgeLosses })
	perBackend("powerperf_cluster_failed_over_total",
		"Chunks re-routed off this backend after it died.",
		func(be BackendStats) int64 { return be.FailedOver })
	// The process-global histogram families follow the counters: in a
	// coordinator process that includes the per-backend request-latency
	// distributions the clients record.
	telemetry.Default.WritePrometheus(&b)
	_, _ = io.WriteString(w, b.String())
}
