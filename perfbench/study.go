package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// studyEnv is one set-up study rig: run measures one cold full study
// and returns its two CSVs; leases returns the client-side latency of
// every request the study sent to a daemon (none for a local study);
// close tears the rig down. A nil tracer (the timed runs) records
// nothing.
type studyEnv interface {
	run(ctx context.Context, tr *telemetry.Tracer) (meas, agg []byte, err error)
	leases() []time.Duration
	close() error
}

// studyCells is the number of cells one study over cps measures.
func studyCells(cps []proc.ConfiguredProcessor) int64 {
	if cps == nil {
		cps = proc.ConfigSpace()
	}
	return int64(len(cps) * len(workload.All()))
}

// span runs fn under a span of the benchmark's own tracer.
func span(ctx context.Context, tr *telemetry.Tracer, name string, fn func(context.Context) error) error {
	ctx, sp := tr.StartSpan(ctx, name)
	err := fn(ctx)
	if err != nil {
		sp.Annotate(telemetry.String("error", err.Error()))
	}
	sp.End()
	return err
}

// localEnv is the fullstudy path in process: the rig is calibrated at
// set-up (harness.New), and the study is the normalization reference
// plus both CSV streams — what powerperf.NewStudy and the two
// Write*CSV calls run, with the clock split after calibration.
type localEnv struct {
	h *harness.Harness
}

func newLocal(ctx context.Context, tr *telemetry.Tracer, seed int64) (*localEnv, error) {
	e := &localEnv{}
	err := span(ctx, tr, "harness.new", func(context.Context) (err error) {
		e.h, err = harness.New(seed)
		return err
	})
	return e, err
}

func (e *localEnv) run(ctx context.Context, tr *telemetry.Tracer) ([]byte, []byte, error) {
	ctx, root := tr.StartSpan(ctx, "bench.local_study")
	defer root.End()
	var ref *harness.Reference
	if err := span(ctx, tr, "harness.reference", func(context.Context) (err error) {
		ref, err = e.h.Reference()
		return err
	}); err != nil {
		return nil, nil, err
	}
	c := &experiments.Context{H: e.h, Ref: ref}
	var mb, ab bytes.Buffer
	if err := span(ctx, tr, "experiments.measurements_csv", func(ctx context.Context) error {
		return experiments.StreamMeasurementsCSV(ctx, c, nil, &mb, 0)
	}); err != nil {
		return nil, nil, err
	}
	if err := span(ctx, tr, "experiments.aggregates_csv", func(ctx context.Context) error {
		return experiments.StreamAggregatesCSV(ctx, c, nil, &ab, 0)
	}); err != nil {
		return nil, nil, err
	}
	return mb.Bytes(), ab.Bytes(), nil
}

func (e *localEnv) leases() []time.Duration { return nil }

func (e *localEnv) close() error { return nil }

// servedEnv is the same study through the default work-stealing
// scheduler (cluster.NewScheduler) against two loopback daemons. The
// host's CPUs are split between the daemons' workers, and the scheduler
// runs one puller per CPU.
type servedEnv struct {
	daemons []*daemon
	sched   *cluster.Scheduler
	tr      *http.Transport
	cps     []proc.ConfiguredProcessor
	pullers int

	// Traced-run instruments, nil in timed runs: the server-side timer
	// inside both daemons, the lease timer under the scheduler, and a
	// hook run after each pass.
	stap   *serverTap
	ctap   *clientTap
	onPass func(ctx context.Context, pass string) error
}

func newServed(c *config, cps []proc.ConfiguredProcessor, tr *telemetry.Tracer, stap *serverTap, ctap *clientTap) (*servedEnv, error) {
	workers := c.nproc / 2
	if workers < 1 {
		workers = 1
	}
	e := &servedEnv{cps: cps, pullers: c.nproc, stap: stap, ctap: ctap}
	var wrap func(http.Handler) http.Handler
	if stap != nil {
		wrap = stap.wrap
	}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(c.workDir, c.seed, workers, wrap)
		if err != nil {
			closeAll(e.daemons)
			return nil, err
		}
		e.daemons = append(e.daemons, d)
		urls = append(urls, d.url)
	}
	const pullersPerBackend = 2 // SchedulerOptions' default, which sizes its own pool
	e.tr = newTransport(pullersPerBackend + 1)
	var rt http.RoundTripper = e.tr
	if ctap != nil {
		ctap.base = e.tr
		rt = ctap
	}
	seed := c.seed
	sched, err := cluster.NewScheduler(urls, cluster.SchedulerOptions{
		Seed:       &seed,
		HTTPClient: &http.Client{Transport: rt},
		Tracer:     tr,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.sched = sched
	return e, nil
}

func (e *servedEnv) run(ctx context.Context, tr *telemetry.Tracer) ([]byte, []byte, error) {
	ctx, root := tr.StartSpan(ctx, "bench.served_study")
	defer root.End()
	var ref *harness.Reference
	var mb, ab bytes.Buffer
	passes := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"cluster.reference", func(ctx context.Context) (err error) {
			ref, err = e.sched.Reference(ctx, e.pullers)
			return err
		}},
		{"experiments.measurements_csv", func(ctx context.Context) error {
			return experiments.StreamMeasurementsCSVFrom(ctx, e.sched, ref, e.cps, &mb, e.pullers)
		}},
		{"experiments.aggregates_csv", func(ctx context.Context) error {
			return experiments.StreamAggregatesCSVFrom(ctx, e.sched, ref, e.cps, &ab, e.pullers)
		}},
	}
	for _, p := range passes {
		if e.stap != nil {
			e.stap.setPhase(p.name)
		}
		// Lease bodies are kept for the decode timing of traced reps
		// only; timed reps keep just the lease times.
		if e.ctap != nil && tr != nil {
			e.ctap.setCapture(p.name == "experiments.measurements_csv")
		}
		if err := span(ctx, tr, p.name, p.fn); err != nil {
			return nil, nil, err
		}
		if e.onPass != nil {
			if err := e.onPass(ctx, p.name); err != nil {
				return nil, nil, err
			}
		}
	}
	return mb.Bytes(), ab.Bytes(), nil
}

func (e *servedEnv) leases() []time.Duration {
	if e.ctap == nil {
		return nil
	}
	e.ctap.mu.Lock()
	defer e.ctap.mu.Unlock()
	return append([]time.Duration(nil), e.ctap.lease...)
}

func (e *servedEnv) close() error {
	err := closeAll(e.daemons)
	e.tr.CloseIdleConnections()
	return err
}

// studyRep is one set-up, timed study, and teardown.
type studyRep struct {
	setup, study time.Duration
	leases       []time.Duration // client-side latency of each lease
	use          usage
	peak         uint64
	meas, agg    [md5.Size]byte
	err          error
}

// oneStudy sets up a rig, times one study on it, and tears it down. A
// study error is recorded in the rep (its cells count as failed); a
// set-up or teardown error aborts the run. inspect, when non-nil, reads
// the rig after the study and before teardown.
func oneStudy(ctx context.Context, setup func() (studyEnv, error), tr *telemetry.Tracer, heap *heapWatch, inspect func(studyEnv) error) (studyRep, error) {
	var r studyRep
	runtime.GC()
	t0 := time.Now()
	env, err := setup()
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	r.setup = time.Since(t0)
	heap.take()
	u0 := readUsage()
	t1 := time.Now()
	meas, agg, err := env.run(ctx, tr)
	r.study = time.Since(t1)
	r.use = readUsage().sub(u0)
	r.peak = heap.take()
	r.leases = env.leases()
	r.err = err
	r.meas, r.agg = md5.Sum(meas), md5.Sum(agg)
	if inspect != nil {
		if err := inspect(env); err != nil {
			env.close()
			return r, err
		}
	}
	if err := env.close(); err != nil {
		return r, fmt.Errorf("teardown: %w", err)
	}
	return r, nil
}

// minReps is the fewest measured reps a run takes, whatever its budget.
const minReps = 3

// timedStudy runs an untimed warm-up study and then measured ones until
// the budget is spent, checks every study's CSVs, and reports the
// end-to-end metrics. Nothing in the program is traced.
func timedStudy(ctx context.Context, c *config, setup func() (studyEnv, error)) (*result, error) {
	heap := watchHeap(5 * time.Millisecond)
	defer heap.close()
	start := time.Now()
	var reps []studyRep
	for len(reps) < minReps+1 || time.Since(start) < c.budget {
		r, err := oneStudy(ctx, setup, nil, heap, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	want, err := expectedDigests(ctx, c)
	if err != nil {
		return nil, err
	}
	res := &result{}
	account(res, reps, want, studyCells(nil))
	measured := reps[1:]
	cells := float64(studyCells(nil))
	var setups, studies, cpus, allocs, peaks, leases []float64
	var total time.Duration
	for _, r := range measured {
		setups = append(setups, r.setup.Seconds())
		studies = append(studies, r.study.Seconds())
		cpus = append(cpus, r.use.cpu.Seconds())
		allocs = append(allocs, float64(r.use.alloc))
		peaks = append(peaks, float64(r.peak))
		total += r.study
		leases = append(leases, seconds(r.leases)...)
	}
	res.set("setup_s", median(setups), "s")
	res.set("study_s", median(studies), "s")
	res.set("cpu_us_per_op", median(cpus)/cells*1e6, "us")
	res.set("alloc_kb_per_op", median(allocs)/cells/1024, "KiB")
	res.set("peak_heap_mb", median(peaks)/(1<<20), "MiB")
	// Throughput counts cells. A served study's queries are the
	// scheduler's lease requests, and the latency quantiles pool every
	// lease of the run: a run holds thousands, so its p99 has more than
	// ten samples beyond it. A local study sends no requests; the study
	// is the request its caller waits for, so the quantiles are taken
	// over studies.
	res.set("queries_per_s", cells*float64(len(measured))/total.Seconds(), "1/s")
	if len(leases) > 0 {
		res.set("query_ms_p50", quantile(leases, 0.5)*1e3, "ms")
		res.set("query_ms_p99", quantile(leases, 0.99)*1e3, "ms")
		fmt.Printf("samples %d studies (after 1 warm-up), %d leases\n", len(measured), len(leases))
	} else {
		res.set("query_ms_p50", quantile(studies, 0.5)*1e3, "ms")
		res.set("query_ms_p99", quantile(studies, 0.99)*1e3, "ms")
		fmt.Printf("samples %d studies (after 1 warm-up)\n", len(measured))
	}
	return res, nil
}

// account counts every study's cells as attempted, and as failed when
// the study errored or its CSVs differ from the expected bytes.
func account(res *result, reps []studyRep, want digests, cells int64) {
	for _, r := range reps {
		res.Attempted += cells
		if r.err != nil || r.meas != want.meas || r.agg != want.agg {
			res.Failed += cells
		}
	}
	res.Correct = res.Failed == 0
}

// digests are the md5 sums of a study's two CSVs.
type digests struct{ meas, agg [md5.Size]byte }

// expectedDigests is what a full study at the run's seed must produce:
// the committed dataset at seed 42, and a separate local study at any
// other seed.
func expectedDigests(ctx context.Context, c *config) (digests, error) {
	if c.seed == 42 {
		meas, err := os.ReadFile(filepath.Join(c.root, "dataset", "measurements.csv"))
		if err != nil {
			return digests{}, err
		}
		agg, err := os.ReadFile(filepath.Join(c.root, "dataset", "aggregates.csv"))
		if err != nil {
			return digests{}, err
		}
		return digests{md5.Sum(meas), md5.Sum(agg)}, nil
	}
	e, err := newLocal(ctx, nil, c.seed)
	if err != nil {
		return digests{}, err
	}
	meas, agg, err := e.run(ctx, nil)
	if err != nil {
		return digests{}, err
	}
	return digests{md5.Sum(meas), md5.Sum(agg)}, nil
}

func timedLocal(ctx context.Context, c *config) (*result, error) {
	return timedStudy(ctx, c, func() (studyEnv, error) { return newLocal(ctx, nil, c.seed) })
}

func timedServed(ctx context.Context, c *config) (*result, error) {
	return timedStudy(ctx, c, func() (studyEnv, error) { return newServed(c, nil, nil, nil, &clientTap{}) })
}
