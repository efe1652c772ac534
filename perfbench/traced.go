package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/traceanalytics"
)

// The traced run. Each workload first alternates untraced and traced
// reps (after one warm-up) for half the budget; trace.overhead_frac
// compares the two. Traced reps arm the benchmark's own tracer, timers
// around the daemons' handlers and the scheduler's transport, and hand
// the tracer to the scheduler so backend spans join one trace per
// study. Then the layer ladder times the paper-model layers from
// outside. A workload that drives no daemon or scheduler gets those
// layers' metrics from a probe: one traced served study over
// probeConfigs configurations.

const (
	traceCapacity = 1 << 18
	probeConfigs  = 4
	queryTraceOne = 8 // a traced warm round spans every 8th query
)

// servedObs is what the traced reps of served studies saw.
type servedObs struct {
	reps      int
	cells     int64 // cells per study
	stap      *serverTap
	ctap      *clientTap
	harvest   time.Duration // span harvesting inside the timed study
	hits      int64
	misses    int64
	queueMax  int
	sched     cluster.SchedulerStats
	store     service.StoreStats
	storeOpen []float64
	kernel    float64 // critical-path share of kernel_compute
	network   float64 // critical-path share of network
}

// tracedServedSetup returns a set-up function for traced served studies
// over cps and the inspect hook that collects what they saw into obs.
func tracedServedSetup(ctx context.Context, c *config, cps []proc.ConfiguredProcessor, tr *telemetry.Tracer, obs *servedObs) (func() (studyEnv, error), func(studyEnv) error) {
	var engine *traceanalytics.Engine
	var stopQueue func()
	setup := func() (studyEnv, error) {
		e, err := newServed(c, cps, tr, obs.stap, obs.ctap)
		if err != nil {
			return nil, err
		}
		engine = traceanalytics.New(traceanalytics.Options{MaxSpansPerTrace: 1 << 16})
		hc := &http.Client{Transport: e.tr}
		// Each daemon's span ring holds 4096 spans, more than one pass
		// makes and less than a study, so spans are harvested per pass.
		e.onPass = func(ctx context.Context, _ string) error {
			t0 := time.Now()
			defer func() { obs.harvest += time.Since(t0) }()
			for _, d := range e.daemons {
				spans, err := d.spans(ctx, hc)
				if err != nil {
					return err
				}
				engine.Ingest(d.url, spans)
			}
			return nil
		}
		for _, d := range e.daemons {
			obs.storeOpen = append(obs.storeOpen, d.storeOpen.Seconds()*1e3)
		}
		stopQueue = sampleQueues(e.daemons, &obs.queueMax)
		return e, nil
	}
	inspect := func(env studyEnv) error {
		e := env.(*servedEnv)
		stopQueue()
		obs.reps++
		for _, d := range e.daemons {
			d.srv.Drain()
			st := d.srv.Stats()
			obs.hits += st.Cache.Hits
			obs.misses += st.Cache.Misses
			if st.Store != nil {
				obs.store.Rows += st.Store.Rows
				obs.store.Segments += st.Store.Segments
				obs.store.Bytes += st.Store.Bytes
				obs.store.Dropped += st.Store.Dropped
			}
		}
		ss := e.sched.Stats()
		obs.sched.CellsMeasured += ss.CellsMeasured
		obs.sched.CellsRequested += ss.CellsRequested
		obs.sched.Steals += ss.Steals
		obs.sched.DispatchFailures += ss.DispatchFailures
		return crossCheck(tr, engine, obs)
	}
	return setup, inspect
}

// sampleQueues polls every daemon's queue depth; see sampleQueue.
func sampleQueues(ds []*daemon, peak *int) func() {
	var stops []func()
	peaks := make([]int, len(ds))
	for i, d := range ds {
		stops = append(stops, sampleQueue(d.srv, &peaks[i]))
	}
	return func() {
		for i, stop := range stops {
			stop()
			if peaks[i] > *peak {
				*peak = peaks[i]
			}
		}
	}
}

// crossCheck assembles the latest traced study — the coordinator's
// spans from the benchmark's tracer plus both daemons' harvested spans —
// with internal/traceanalytics and keeps its critical-path shares.
func crossCheck(tr *telemetry.Tracer, engine *traceanalytics.Engine, obs *servedObs) error {
	spans := tr.Snapshot()
	var root telemetry.TraceID
	for _, s := range spans {
		if s.Name == "bench.served_study" {
			root = s.Trace
		}
	}
	var coord []telemetry.SpanData
	for _, s := range spans {
		// The benchmark's own request timers duplicate the daemons'
		// http spans; only the coordinator's side is assembled.
		if s.Trace == root && s.Name != "service.request" {
			coord = append(coord, s)
		}
	}
	engine.Ingest("coordinator", coord)
	t := engine.Trace(root)
	if t == nil {
		return errors.New("cross-check: study trace not assembled")
	}
	obs.kernel, obs.network = 0, 0
	for _, st := range t.Stages {
		switch st.Stage {
		case traceanalytics.StageKernel:
			obs.kernel = st.Frac
		case traceanalytics.StageNetwork:
			obs.network = st.Frac
		}
	}
	return nil
}

// setServed reports the service, cluster, store, and cross-check
// metrics of traced served studies. compute is the ledger's compute
// share for the same studies.
func setServed(res *result, obs *servedObs, compute float64) {
	all := seconds(obs.stap.all())
	res.set("service.request_ms_p50", quantile(all, 0.5)*1e3, "ms")
	res.set("service.request_ms_p99", quantile(all, 0.99)*1e3, "ms")
	hit := seconds(obs.stap.get("experiments.aggregates_csv"))
	res.set("service.hit_us_per_cell", sum(hit)*1e6/float64(obs.cells*int64(obs.reps)), "us")
	res.set("service.cache_hit_frac", float64(obs.hits)/float64(obs.hits+obs.misses), "frac")
	res.set("service.queue_depth_max", float64(obs.queueMax), "count")
	setCluster(res, obs)
	reps := float64(obs.reps)
	ops := float64(obs.cells) * reps
	setStore(res, obs.store, reps, ops, obs.storeOpen)
	setCrossCheck(res, obs, compute)
}

// setCluster reports the scheduler-side metrics.
func setCluster(res *result, obs *servedObs) {
	c := obs.ctap
	c.mu.Lock()
	lease, ttfb, bytesIn, bodies := seconds(c.lease), seconds(c.ttfb), c.bytes, c.bodies
	c.mu.Unlock()
	res.set("cluster.lease_ms_p50", quantile(lease, 0.5)*1e3, "ms")
	res.set("cluster.lease_ms_p99", quantile(lease, 0.99)*1e3, "ms")
	res.set("cluster.ttfb_ms", quantile(ttfb, 0.5)*1e3, "ms")
	res.set("cluster.wire_bytes_per_cell", float64(bytesIn)/float64(obs.sched.CellsRequested), "B")
	res.set("cluster.decode_us_per_cell", decodeCost(bodies), "us")
	res.set("cluster.useful_frac", float64(obs.sched.CellsMeasured)/float64(obs.sched.CellsRequested), "frac")
	reps := float64(obs.reps)
	res.set("cluster.steals", float64(obs.sched.Steals)/reps, "count")
	res.set("cluster.dispatch_failures", float64(obs.sched.DispatchFailures)/reps, "count")
}

// setStore reports the study store's per-study (or per-round) counts.
func setStore(res *result, st service.StoreStats, reps, ops float64, opens []float64) {
	res.set("store.rows", float64(st.Rows)/reps, "count")
	res.set("store.segments_per_op", float64(st.Segments)/ops, "count")
	res.set("store.bytes_per_row", float64(st.Bytes)/float64(st.Rows), "B")
	res.set("store.dropped", float64(st.Dropped)/reps, "count")
	res.set("store.open_ms", median(opens), "ms")
}

func setCrossCheck(res *result, obs *servedObs, compute float64) {
	res.set("traceview.kernel_compute_frac", obs.kernel, "frac")
	res.set("traceview.network_frac", obs.network, "frac")
	gap := obs.kernel - compute
	if gap < 0 {
		gap = -gap
	}
	res.set("traceview.ledger_gap", gap, "frac")
}

// decodeCost replays the captured lease bodies through the scheduler's
// stream decoder and returns the microseconds per decoded cell.
func decodeCost(bodies [][]byte) float64 {
	cells := 0
	t0 := time.Now()
	for _, b := range bodies {
		dec := service.NewStreamDecoder(bytes.NewReader(b))
		for {
			ev, err := dec.Next()
			if err != nil {
				break
			}
			if ev.Cell != nil {
				cells++
			}
		}
	}
	if cells == 0 {
		return 0
	}
	return time.Since(t0).Seconds() * 1e6 / float64(cells)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ledger splits a study's (or round's) CPU into the cells it computed
// times the measured CPU per cell, and the residual: wire, cache,
// scheduling, store, and CSV work.
func ledger(res *result, computed int64, cellCPU time.Duration, opCPU float64) float64 {
	compute := float64(computed) * cellCPU.Seconds()
	res.set("ledger.compute_cpu_frac", compute/opCPU, "frac")
	res.set("ledger.residual_cpu_s", opCPU-compute, "s")
	return compute / opCPU
}

// pairs runs a warm-up study and then alternating untraced and traced
// studies for half the budget.
func pairs(ctx context.Context, c *config, heap *heapWatch, plainSetup, tracedSetup func() (studyEnv, error), tr *telemetry.Tracer, inspect func(studyEnv) error) (all, plain, traced []studyRep, err error) {
	start := time.Now()
	warm, err := oneStudy(ctx, plainSetup, nil, heap, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	all = append(all, warm)
	for len(traced) < 2 || time.Since(start) < c.budget/2 {
		p, err := oneStudy(ctx, plainSetup, nil, heap, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		t, err := oneStudy(ctx, tracedSetup, tr, heap, inspect)
		if err != nil {
			return nil, nil, nil, err
		}
		plain, traced = append(plain, p), append(traced, t)
		all = append(all, p, t)
	}
	return all, plain, traced, nil
}

func studySeconds(reps []studyRep, minus time.Duration) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, (r.study - minus).Seconds())
	}
	return out
}

func studyCPU(reps []studyRep) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.use.cpu.Seconds())
	}
	return out
}

func tracedLocal(ctx context.Context, c *config) (*result, error) {
	tr := telemetry.NewTracer(traceCapacity)
	heap := watchHeap(5 * time.Millisecond)
	defer heap.close()
	res := &result{}
	plainSetup := func() (studyEnv, error) { return newLocal(ctx, nil, c.seed) }
	tracedSetup := func() (studyEnv, error) { return newLocal(ctx, tr, c.seed) }
	all, plain, traced, err := pairs(ctx, c, heap, plainSetup, tracedSetup, tr, nil)
	if err != nil {
		return nil, err
	}
	want, err := expectedDigests(ctx, c)
	if err != nil {
		return nil, err
	}
	account(res, all, want, studyCells(nil))
	res.set("trace.overhead_frac", median(studySeconds(traced, 0))/median(studySeconds(plain, 0))-1, "frac")
	cellCPU, err := runLadder(ctx, tr, c.seed, res)
	if err != nil {
		return nil, err
	}
	computed, err := localComputedCells()
	if err != nil {
		return nil, err
	}
	ledger(res, computed, cellCPU, median(studyCPU(plain)))
	if err := servedProbe(ctx, c, tr, cellCPU, res, true); err != nil {
		return nil, err
	}
	return res, writeTrace(c, "local_study", tr)
}

// localComputedCells counts the distinct cells a local study computes:
// the grid plus any reference cell outside it (the harness memoizes the
// rest).
func localComputedCells() (int64, error) {
	refs, err := harness.ReferenceCells()
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	for _, cps := range [][]proc.ConfiguredProcessor{refs, proc.ConfigSpace()} {
		for _, j := range harness.GridJobs(cps, nil) {
			seen[j.Bench.Name+"|"+j.CP.String()] = true
		}
	}
	return int64(len(seen)), nil
}

// servedProbe runs one traced served study over the first probeConfigs
// configurations and reports the cluster and cross-check metrics, and
// with withService also the service and store ones, for a workload that
// does not drive them itself.
func servedProbe(ctx context.Context, c *config, tr *telemetry.Tracer, cellCPU time.Duration, res *result, withService bool) error {
	cps := proc.ConfigSpace()[:probeConfigs]
	obs := &servedObs{cells: studyCells(cps), stap: newServerTap(tr), ctap: &clientTap{}}
	setup, inspect := tracedServedSetup(ctx, c, cps, tr, obs)
	rep, err := oneStudy(ctx, setup, tr, nil, inspect)
	if err != nil {
		return err
	}
	if rep.err != nil {
		return fmt.Errorf("probe: %w", rep.err)
	}
	compute := float64(obs.misses) * cellCPU.Seconds() / rep.use.cpu.Seconds()
	if withService {
		setServed(res, obs, compute)
		return nil
	}
	setCluster(res, obs)
	setCrossCheck(res, obs, compute)
	return nil
}

func tracedServed(ctx context.Context, c *config) (*result, error) {
	tr := telemetry.NewTracer(traceCapacity)
	heap := watchHeap(5 * time.Millisecond)
	defer heap.close()
	res := &result{}
	obs := &servedObs{cells: studyCells(nil), stap: newServerTap(tr), ctap: &clientTap{}}
	tracedSetup, inspect := tracedServedSetup(ctx, c, nil, tr, obs)
	plainSetup := func() (studyEnv, error) { return newServed(c, nil, nil, nil, nil) }
	all, plain, traced, err := pairs(ctx, c, heap, plainSetup, tracedSetup, tr, inspect)
	if err != nil {
		return nil, err
	}
	want, err := expectedDigests(ctx, c)
	if err != nil {
		return nil, err
	}
	account(res, all, want, studyCells(nil))
	// Harvesting the daemons' spans between passes is the benchmark's
	// own work inside the traced studies' clock; it is taken out.
	harvest := obs.harvest / time.Duration(len(traced))
	res.set("trace.overhead_frac", median(studySeconds(traced, harvest))/median(studySeconds(plain, 0))-1, "frac")
	cellCPU, err := runLadder(ctx, tr, c.seed, res)
	if err != nil {
		return nil, err
	}
	compute := ledger(res, obs.misses/int64(obs.reps), cellCPU, median(studyCPU(plain)))
	setServed(res, obs, compute)
	return res, writeTrace(c, "served_study", tr)
}

func tracedWarm(ctx context.Context, c *config) (*result, error) {
	tr := telemetry.NewTracer(traceCapacity)
	heap := watchHeap(5 * time.Millisecond)
	defer heap.close()
	res := &result{}
	qs, err := warmInputs(c.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rounds := []*warmRound{}
	var plain, traced []*warmRound
	var probes []*warmProbe
	warm, err := oneRound(ctx, c, qs, heap, nil)
	if err != nil {
		return nil, err
	}
	rounds = append(rounds, warm)
	stap := newServerTap(tr)
	for len(traced) < 2 || time.Since(start) < c.budget/2 {
		p, err := oneRound(ctx, c, qs, heap, nil)
		if err != nil {
			return nil, err
		}
		pr := &warmProbe{tr: tr, stap: stap}
		t, err := oneRound(ctx, c, qs, heap, pr)
		if err != nil {
			return nil, err
		}
		plain, traced, probes = append(plain, p), append(traced, t), append(probes, pr)
		rounds = append(rounds, p, t)
	}
	if err := checkRounds(res, qs, rounds); err != nil {
		return nil, err
	}
	qps := func(rs []*warmRound) float64 {
		var d time.Duration
		for _, r := range rs {
			d += r.phase
		}
		return float64(len(qs)*len(rs)) / d.Seconds()
	}
	res.set("trace.overhead_frac", qps(plain)/qps(traced)-1, "frac")

	all := seconds(stap.all())
	res.set("service.request_ms_p50", quantile(all, 0.5)*1e3, "ms")
	res.set("service.request_ms_p99", quantile(all, 0.99)*1e3, "ms")
	res.set("service.hit_us_per_cell", median(seconds(stap.get("hit")))*1e6, "us")
	var hits, misses int64
	var st service.StoreStats
	var opens []float64
	queueMax := 0
	for _, p := range probes {
		hits += p.stats.Cache.Hits - p.warmed.Cache.Hits
		misses += p.stats.Cache.Misses - p.warmed.Cache.Misses
		if p.stats.Store != nil && p.warmed.Store != nil {
			st.Rows += p.stats.Store.Rows - p.warmed.Store.Rows
			st.Segments += p.stats.Store.Segments - p.warmed.Store.Segments
			st.Bytes += p.stats.Store.Bytes - p.warmed.Store.Bytes
			st.Dropped += p.stats.Store.Dropped - p.warmed.Store.Dropped
		}
		opens = append(opens, p.storeOpen.Seconds()*1e3)
		if p.queueMax > queueMax {
			queueMax = p.queueMax
		}
	}
	res.set("service.cache_hit_frac", float64(hits)/float64(hits+misses), "frac")
	res.set("service.queue_depth_max", float64(queueMax), "count")
	n := float64(len(probes))
	setStore(res, st, n, n*float64(len(qs)), opens)

	cellCPU, err := runLadder(ctx, tr, c.seed, res)
	if err != nil {
		return nil, err
	}
	var cpus []float64
	for _, r := range plain {
		cpus = append(cpus, r.use.cpu.Seconds())
	}
	ledger(res, misses/int64(len(probes)), cellCPU, median(cpus))
	if err := servedProbe(ctx, c, tr, cellCPU, res, false); err != nil {
		return nil, err
	}
	return res, writeTrace(c, "warm_queries", tr)
}

// selfTime is one span name's aggregate in the traced run.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	WallMS float64 `json:"wall_ms"`
}

// selfTimes derives each span's self time — its duration minus the
// part of it its children cover — and sums both per span name.
func selfTimes(spans []telemetry.SpanData) []selfTime {
	type iv struct{ lo, hi time.Time }
	kids := map[telemetry.SpanID][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start.Add(s.Dur)})
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		lo, hi := s.Start, s.Start.Add(s.Dur)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo.Before(cs[j].lo) })
		covered := time.Duration(0)
		cur := lo
		for _, c := range cs {
			a, b := c.lo, c.hi
			if a.Before(cur) {
				a = cur
			}
			if b.After(hi) {
				b = hi
			}
			if b.After(a) {
				covered += b.Sub(a)
				cur = b
			}
		}
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.SelfMS += (s.Dur - covered).Seconds() * 1e3
		st.WallMS += s.Dur.Seconds() * 1e3
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeTrace prints the self-time table and writes the traced run's
// spans and self times under .bench_build/perfbench-traces.
func writeTrace(c *config, name string, tr *telemetry.Tracer) error {
	spans := tr.Snapshot()
	table := selfTimes(spans)
	for _, st := range table {
		fmt.Printf("self %-13s %-32s %8d spans %12.3f ms self %12.3f ms wall\n", name, st.Name, st.Count, st.SelfMS, st.WallMS)
	}
	dir := filepath.Join(c.root, ".bench_build", "perfbench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, c.seed))
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := telemetry.WriteSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	host, err := json.Marshal(fingerprint())
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# host %s\nname\tspans\tself_ms\twall_ms\n", host)
	for _, st := range table {
		fmt.Fprintf(&b, "%s\t%d\t%.6f\t%.6f\n", st.Name, st.Count, st.SelfMS, st.WallMS)
	}
	if err := os.WriteFile(base+".self.tsv", []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("trace %s written to %s.{spans.json,self.tsv}\n", name, base)
	return nil
}
