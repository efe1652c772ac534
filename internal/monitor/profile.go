package monitor

// Continuous-profiling federation: the monitor's sweep loop doubles as
// the fleet profiler's clock. Every ProfileEvery-th sweep kicks one
// asynchronous harvest of each backend's /debug/pprof endpoints (CPU
// window plus heap), and each completed harvest pushes three derived
// series per backend into the same detector every other rule reads:
//
//	profile_cpu_busy_frac      sampled-CPU/wall over the harvest window
//	profile_alloc_bytes_per_sec allocation rate across the harvest pair
//	profile_heap_inuse_bytes   live heap at capture
//
// Harvests are jittered by the sweep cadence itself and never overlap
// (a harvest blocks on the CPU sampling window, so a slow fleet simply
// skips beats rather than stacking collectors). Allocation regressions
// surface through the stock alloc_rate_regressed CI rule — profiles
// ride the same detector state machine as every scraped series.

import (
	"context"
	"time"

	"repro/internal/profiling"
)

// maybeProfile starts one async fleet harvest when this sweep lands on
// the profiling cadence and no harvest is already in flight.
func (m *Monitor) maybeProfile(ctx context.Context, sweep int64) {
	if m.fleet == nil {
		return
	}
	if (sweep-1)%int64(m.opts.ProfileEvery) != 0 {
		return
	}
	if !m.profBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer m.profBusy.Store(false)
		m.fleet.HarvestAll(ctx)
		now := time.Now()
		for _, be := range m.backends {
			if v, ok := m.fleet.CPUBusyFrac(be); ok {
				m.detector.Push(be, "profile_cpu_busy_frac", now, v)
			}
			if v, ok := m.fleet.AllocRate(be); ok {
				m.detector.Push(be, "profile_alloc_bytes_per_sec", now, v)
			}
			if h, ok := m.fleet.Latest(be); ok {
				m.detector.Push(be, "profile_heap_inuse_bytes", now, float64(h.HeapInuse))
			}
		}
		m.harvests.Add(1)
	}()
}

// ProfileFleet exposes the fleet profiler, nil when profiling is off
// (powerperfmon's profile subcommand and tests drive it directly).
func (m *Monitor) ProfileFleet() *profiling.Fleet { return m.fleet }

// Harvests reports completed fleet profile harvests.
func (m *Monitor) Harvests() int64 { return m.harvests.Load() }
