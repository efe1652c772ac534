package monitor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaoshttp"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// TestCriticalPathUnderChaos is the acceptance scenario for fleet trace
// analytics: a scheduled (work-stealing) seed-42 study over three
// backends — one a 10x straggler, one killed while it holds the study's
// final lease — with the fleet monitor's trace analytics armed
// throughout. The monitor must assemble complete cross-backend
// waterfalls from the per-process span harvests, the critical path must
// attribute nonzero wall time to the re-dispatch that absorbed the
// death, per-stage self-times must sum to each trace's wall time within
// 1%, and the study's CSVs must stay byte-identical to a local serial
// run — observation and chaos both invisible under the determinism
// contract.
//
// The critical path runs through whichever lease finishes last, so the
// hooks order the tail by construction rather than by timing: the
// final lease — the victim's last home lease, which the victim reaches
// last in its front-to-back sweep — is refused by the two survivors
// until the victim has died holding it, and the victim dies only once
// every other cell of the study has entered its computation. The
// re-dispatch of the final lease — all of its cells still unmeasured —
// is then the last lease to finish.
func TestCriticalPathUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario; skipped in -short")
	}

	const leaseCells = 8
	cps := proc.StockConfigs()[:6]
	jobs := harness.GridJobs(cps, nil)
	cellKey := func(bench, processor string) string { return bench + "|" + processor }
	// Filled in once the victim's address is known, before any cell is
	// measured.
	finalLease := map[string]bool{}

	// started records every non-final cell that has entered a
	// computation on some backend; othersStarted closes when all have.
	var startedMu sync.Mutex
	started := map[string]bool{}
	othersStarted := make(chan struct{})
	markStarted := func(bench, processor string) {
		k := cellKey(bench, processor)
		if finalLease[k] {
			return
		}
		startedMu.Lock()
		defer startedMu.Unlock()
		if !started[k] {
			started[k] = true
			if len(started) == len(jobs)-len(finalLease) {
				close(othersStarted)
			}
		}
	}
	// Survivors refuse final-lease cells (a transient stream error, so
	// the lease is released and re-issued) until the victim is dead.
	victimDead := make(chan struct{})
	refuseFinal := func(bench, processor string) error {
		if !finalLease[cellKey(bench, processor)] {
			return nil
		}
		select {
		case <-victimDead:
			return nil
		default:
			return errors.New("final lease is reserved for the victim")
		}
	}
	stop := make(chan struct{}) // releases a waiting victim hook on exit

	// Backend 0: the straggler. Every cache fill sleeps ~10x a typical
	// fill, so the work-stealing division of labor shifts around it.
	hooks0 := &service.Hooks{BeforeMeasure: func(_ int64, bench, processor string) error {
		if err := refuseFinal(bench, processor); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
		markStarted(bench, processor)
		return nil
	}}
	srv0 := service.NewServer(service.Options{Seed: 42, Hooks: hooks0})
	defer srv0.Drain()
	ts0 := httptest.NewServer(srv0.Handler())
	defer ts0.Close()

	// Backend 1: healthy.
	hooks1 := &service.Hooks{BeforeMeasure: func(_ int64, bench, processor string) error {
		if err := refuseFinal(bench, processor); err != nil {
			return err
		}
		markStarted(bench, processor)
		return nil
	}}
	srv1 := service.NewServer(service.Options{Seed: 42, Hooks: hooks1})
	defer srv1.Drain()
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	// Backend 2: the victim, killed on its first final-lease cell once
	// the rest of the study is under way. The scheduler reaches it
	// through a chaos proxy (so the kill severs the scheduler's streams)
	// while the monitor scrapes the backend directly (so the victim's
	// span retention stays harvestable, the way a sidecar monitor
	// outlives a torn-down route).
	var proxy2 *chaoshttp.Proxy
	var pts2 *httptest.Server
	var victimFills atomic.Int64
	var kill sync.Once
	hooks2 := &service.Hooks{BeforeMeasure: func(_ int64, bench, processor string) error {
		victimFills.Add(1)
		if !finalLease[cellKey(bench, processor)] {
			markStarted(bench, processor)
			return nil
		}
		select {
		case <-othersStarted:
		case <-stop:
			return errors.New("test finished")
		}
		kill.Do(func() {
			proxy2.Kill()
			pts2.CloseClientConnections()
			close(victimDead)
		})
		return nil
	}}
	// The victim holds every cell of the final lease in its hook until
	// the rest of the study has started, so it gets more workers than a
	// lease has cells: its other leases keep computing instead of
	// queueing behind the held cells until the kill.
	srv2 := service.NewServer(service.Options{Seed: 42, Hooks: hooks2, Workers: 2 * leaseCells})
	defer srv2.Drain()
	// victimMeasures tracks the victim's in-flight measure requests: it
	// keeps computing its final-lease cells after the kill, and the
	// spans of a request still open at harvest would be assembled
	// without their parent.
	var victimMeasures sync.WaitGroup
	h2 := srv2.Handler()
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/measure" {
			victimMeasures.Add(1)
			defer victimMeasures.Done()
		}
		h2.ServeHTTP(w, r)
	}))
	defer ts2.Close()
	proxy2 = chaoshttp.New(ts2.URL, chaoshttp.Options{Seed: 2})
	pts2 = httptest.NewServer(proxy2)
	defer pts2.Close()
	defer close(stop)
	members := []string{ts0.URL, ts1.URL, pts2.URL}

	// The scheduler slices each backend's home cells (rendezvous routing
	// over the member set) into leases of leaseCells in job order; the
	// final lease is the last slice of the victim's home.
	router := cluster.NewRouter(members)
	var victimHome []harness.Job
	for _, j := range jobs {
		if router.RouteJob(42, j) == pts2.URL {
			victimHome = append(victimHome, j)
		}
	}
	if len(victimHome) == 0 {
		t.Fatal("the victim is home to no cell")
	}
	for _, j := range victimHome[(len(victimHome)-1)/leaseCells*leaseCells:] {
		finalLease[cellKey(j.Bench.Name, j.CP.Proc.Name)] = true
	}

	// The monitor watches all three backends directly, analytics armed
	// and sweeping (trace harvests included, on the sweep throttle)
	// while the study runs.
	mon := monitor.New([]string{ts0.URL, ts1.URL, ts2.URL}, monitor.Options{
		Interval: 25 * time.Millisecond,
		Jitter:   time.Millisecond,
		Timeout:  2 * time.Second,
		Seed:     7,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mon.Start(ctx)

	sched, err := cluster.NewScheduler(members, cluster.SchedulerOptions{
		Seed:             seedPtr(42),
		LeaseCells:       leaseCells,
		LeaseExpiry:      150 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxLeaseFailures: 1000,
		Tracer:           telemetry.NewTracer(0),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Local serial run at the same seed: the byte-identity oracle.
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	var wantM, gotM bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, h, ref, cps, &wantM, 0); err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamMeasurementsCSVFrom(ctx, sched, ref, cps, &gotM, 0); err != nil {
		t.Fatalf("scheduled study failed under chaos: %v", err)
	}
	if !bytes.Equal(gotM.Bytes(), wantM.Bytes()) {
		t.Errorf("measurements.csv differs with analytics armed (%d vs %d bytes)",
			gotM.Len(), wantM.Len())
	}
	if !proxy2.Dead() {
		t.Fatalf("victim was never killed (fills=%d)", victimFills.Load())
	}
	st := sched.Stats()
	if st.Steals+st.Redispatches == 0 {
		t.Fatalf("victim death produced no steals or re-dispatches; stats %+v", st)
	}

	// Assemble once the victim has finished its last request (nothing
	// reaches it through the dead proxy any more): force one full
	// harvest of every backend's retention, then stitch in the
	// coordinator's own spans — the scheduler.lease spans that join the
	// backend fragments into one waterfall.
	victimMeasures.Wait()
	mon.HarvestTraces(ctx)
	if n := mon.IngestSpans("coordinator", sched.Tracer().Snapshot()); n == 0 {
		t.Fatal("coordinator contributed no spans")
	}
	eng := mon.TraceAnalytics()

	traces := eng.Search(traceanalytics.Query{Op: "scheduler.MeasureBatch", Limit: 10})
	if len(traces) == 0 {
		t.Fatalf("no scheduled-study traces assembled; stats %+v", eng.Stats())
	}

	// Every assembled study trace must satisfy the partition invariant:
	// per-stage self-times sum to the trace's wall time within 1%.
	var best *traceanalytics.Trace
	for _, tr := range traces {
		var sum float64
		stageMS := map[string]float64{}
		for _, sh := range tr.Stages {
			sum += sh.MS
			stageMS[sh.Stage] = sh.MS
		}
		if math.Abs(sum-tr.WallMS) > tr.WallMS*0.01 {
			t.Errorf("trace %s: stage self-times sum %.3fms, wall %.3fms (>1%% off)",
				tr.ID, sum, tr.WallMS)
		}
		if best == nil && stageMS[traceanalytics.StageSteal] > 0 {
			best = tr
		}
	}
	if best == nil {
		t.Fatalf("no study trace attributes critical-path time to %s; traces: %d, sched stats %+v",
			traceanalytics.StageSteal, len(traces), st)
	}

	// The steal trace is a complete cross-process waterfall: the
	// coordinator's spans plus at least one scraped backend's.
	if len(best.Sources) < 2 {
		t.Fatalf("steal trace has sources %v, want coordinator + backend(s)", best.Sources)
	}
	hasCoord := false
	for _, s := range best.Sources {
		if s == "coordinator" {
			hasCoord = true
		}
	}
	if !hasCoord {
		t.Fatalf("steal trace sources %v missing the coordinator", best.Sources)
	}
	if best.Seed != "42" {
		t.Errorf("steal trace seed = %q, want 42", best.Seed)
	}
	var onCrit int
	for i := range best.Spans {
		if best.Spans[i].OnCritical {
			onCrit++
		}
	}
	if onCrit == 0 || len(best.Critical) == 0 {
		t.Fatalf("steal trace has no critical path (spans=%d segments=%d)", onCrit, len(best.Critical))
	}

	// The fleet surface: a sweep publishes stage-share series under the
	// synthetic fleet backend and the snapshot carries the digest.
	mon.Sweep(ctx)
	snap := mon.Snapshot()
	if snap.Traces == nil || snap.Traces.Stats.Traces == 0 {
		t.Fatal("snapshot carries no trace analytics digest")
	}
	if len(snap.Traces.StageShares) == 0 || len(snap.Traces.TopCritical) == 0 {
		t.Fatalf("snapshot digest incomplete: %+v", snap.Traces)
	}
	series := mon.Series(monitor.FleetBackend, `trace_stage_share{stage="steal_redispatch"}`, 10)
	if len(series) == 0 {
		t.Fatal("fleet steal_redispatch share series never published")
	}

	// /v1/traceview serves the waterfall end-to-end.
	tv := httptest.NewServer(mon.TraceviewHandler())
	defer tv.Close()
	var one struct {
		Trace *traceanalytics.Trace `json:"trace"`
	}
	if err := json.Unmarshal(getBody(t, tv.URL+"/?trace="+best.ID), &one); err != nil {
		t.Fatalf("traceview waterfall unparseable: %v", err)
	}
	if one.Trace == nil || len(one.Trace.Spans) == 0 || len(one.Trace.Critical) == 0 {
		t.Fatalf("traceview returned an empty waterfall: %+v", one.Trace)
	}
	var list struct {
		Traces []traceanalytics.Digest `json:"traces"`
	}
	if err := json.Unmarshal(getBody(t, tv.URL+"/?op=scheduler.MeasureBatch&seed=42"), &list); err != nil {
		t.Fatalf("traceview search unparseable: %v", err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("traceview search found no scheduled-study traces")
	}
}
