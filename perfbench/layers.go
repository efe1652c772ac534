package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/fastrand"
	"repro/internal/harness"
	"repro/internal/jvm"
	"repro/internal/native"
	"repro/internal/power"
	"repro/internal/proc"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sink keeps the ladder's loop results alive so the compiler cannot
// drop the calls being timed.
var sink float64

// Ladder sizes: micro loops run loopN calls loopReps times and report
// the median; cell-level rungs use every cellStride-th grid cell, which
// keeps the workload's native/managed mix.
const (
	loopN      = 1 << 19
	loopReps   = 5
	cellStride = 15
	newReps    = 21
)

// perCall times loopReps runs of fn (which makes n calls) under one
// span each and returns the median nanoseconds per call.
func perCall(ctx context.Context, tr *telemetry.Tracer, name string, n int, fn func()) float64 {
	var ns []float64
	for i := 0; i < loopReps; i++ {
		_, sp := tr.StartSpan(ctx, name, telemetry.Int("calls", n))
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
		sp.End()
	}
	return median(ns)
}

// ladderCells samples the full grid at a fixed stride, offset by the
// seed.
func ladderCells(seed int64) []harness.Job {
	grid := harness.GridJobs(proc.ConfigSpace(), nil)
	off := int(seed % cellStride)
	if off < 0 {
		off += cellStride
	}
	var out []harness.Job
	for i := off; i < len(grid); i += cellStride {
		out = append(out, grid[i])
	}
	return out
}

// runLadder times the public entry points of the paper-model layers
// from outside, each under its own span, and reports their per-layer
// metrics. It returns the CPU cost of one cell as the study computes it
// (the grid rung's CPU over its cells), which the ledger multiplies out.
func runLadder(ctx context.Context, tr *telemetry.Tracer, seed int64, res *result) (time.Duration, error) {
	ctx, root := tr.StartSpan(ctx, "bench.ladder")
	defer root.End()
	cells := ladderCells(seed)

	src := fastrand.NewSource(seed)
	res.set("fastrand.seed_ns", perCall(ctx, tr, "fastrand.seed", loopN, func() {
		for i := 0; i < loopN; i++ {
			src.Seed(int64(i))
		}
		sink += float64(src.Int63())
	}), "ns")
	rng := fastrand.New(seed)
	res.set("fastrand.norm_ns", perCall(ctx, tr, "fastrand.norm", loopN, func() {
		s := 0.0
		for i := 0; i < loopN; i++ {
			s += rng.NormFloat64()
		}
		sink += s
	}), "ns")

	kernels, err := stockKernels()
	if err != nil {
		return 0, err
	}
	res.set("power.eval_ns", perCall(ctx, tr, "power.eval", loopN, func() {
		s := 0.0
		for i := 0; i < loopN; i++ {
			k := &kernels[i%len(kernels)]
			s += k.Eval(50+float64(i&15), 0.9+float64(i&7)*0.03).TotalWatts
		}
		sink += s
	}), "ns")

	watts, err := simRung(ctx, tr, seed, cells, res)
	if err != nil {
		return 0, err
	}

	h, err := harness.New(seed)
	if err != nil {
		return 0, err
	}
	meter, err := h.Rig().Meter(proc.I7Name)
	if err != nil {
		return 0, err
	}
	lg, err := meter.AcquireLogger(seed)
	if err != nil {
		return 0, err
	}
	res.set("sensor.sample_ns", perCall(ctx, tr, "sensor.sample", loopN, func() {
		for i := 0; i < loopN; i++ {
			lg.Sample(watts[i%len(watts)], 0.02)
		}
	}), "ns")
	tr0, err := lg.Finish()
	if err != nil {
		return 0, err
	}
	sink += tr0.AvgWatts
	meter.ReleaseLogger(lg)
	adc := sensor.ADC{Bits: 10, VRef: 5}
	res.set("sensor.convert_ns", perCall(ctx, tr, "sensor.convert", loopN, func() {
		s := 0
		for i := 0; i < loopN; i++ {
			s += adc.Convert(2.5 + watts[i%len(watts)]/sensor.SupplyVolts*0.185)
		}
		sink += float64(s)
	}), "ns")

	var news []float64
	for i := 0; i < newReps; i++ {
		_, sp := tr.StartSpan(ctx, "harness.new")
		t0 := time.Now()
		if _, err := harness.New(seed + int64(i)); err != nil {
			return 0, err
		}
		news = append(news, time.Since(t0).Seconds()*1e3)
		sp.End()
	}
	res.set("harness.new_ms", median(news), "ms")

	if err := cellRung(ctx, tr, h, cells, res); err != nil {
		return 0, err
	}
	cellCPU, err := studyRungs(ctx, tr, seed, res)
	if err != nil {
		return 0, err
	}
	res.set("sensor.cell_share",
		res.Metrics["sim.steps_per_cell"].Value*res.Metrics["sensor.sample_ns"].Value/float64(cellCPU.Nanoseconds()), "frac")
	return cellCPU, nil
}

// stockKernels compiles one power kernel per fleet processor at its
// stock operating point with every core busy.
func stockKernels() ([]power.Kernel, error) {
	var ks []power.Kernel
	for _, p := range proc.Fleet() {
		loads := make([]power.CoreLoad, p.Spec.Cores)
		for i := range loads {
			loads[i] = power.CoreLoad{Active: true, Enabled: true, Activity: 0.7, Utilization: 0.8}
		}
		op := power.Operating{ClockGHz: p.MaxClock(), Volts: p.VoltsAt(p.MaxClock()), TempC: 55}
		k, err := power.Compile(p, op, loads)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// simRung replays each sampled cell's runs (three or five native runs,
// twenty measured JVM iterations) through sim.Runner.Run with a counting
// sample function. It returns the first sampled watts, the sensor
// rungs' input.
func simRung(ctx context.Context, tr *telemetry.Tracer, seed int64, cells []harness.Job, res *result) ([]float64, error) {
	ctx, root := tr.StartSpan(ctx, "bench.sim_cells", telemetry.Int("cells", len(cells)))
	defer root.End()
	machines := map[string]*sim.Machine{}
	var steps int
	watts := make([]float64, 0, 4096)
	count := func(w, _ float64) {
		steps++
		if len(watts) < cap(watts) {
			watts = append(watts, w)
		}
	}
	var runTime time.Duration
	for i, j := range cells {
		key := j.CP.String()
		m := machines[key]
		if m == nil {
			var err error
			if m, err = sim.NewMachine(j.CP.Proc, j.CP.Config); err != nil {
				return nil, err
			}
			machines[key] = m
		}
		var spec sim.ExecSpec
		var runs int
		if j.Bench.Managed() {
			plan, err := jvm.NewPlan(j.Bench, m.Cfg.Contexts())
			if err != nil {
				return nil, err
			}
			spec, runs = plan.Specs[plan.MeasuredIndex()], jvm.Invocations
		} else {
			var err error
			if spec, err = native.Spec(j.Bench, m.Cfg.Contexts()); err != nil {
				return nil, err
			}
			if runs, err = native.Runs(j.Bench); err != nil {
				return nil, err
			}
		}
		runner, err := m.NewRunner(spec)
		if err != nil {
			return nil, err
		}
		_, sp := tr.StartSpan(ctx, "sim.run", telemetry.Int("runs", runs))
		t0 := time.Now()
		for r := 0; r < runs; r++ {
			if _, err := runner.Run(seed+int64(i*32+r), count); err != nil {
				return nil, err
			}
		}
		runTime += time.Since(t0)
		sp.End()
		runner.Release()
	}
	res.set("sim.run_us_per_cell", runTime.Seconds()*1e6/float64(len(cells)), "us")
	res.set("sim.steps_per_cell", float64(steps)/float64(len(cells)), "count")
	if len(watts) == 0 {
		return nil, fmt.Errorf("sim: no samples over %d cells", len(cells))
	}
	return watts, nil
}

// cellRung measures each sampled cell once with MeasureUncached,
// serially, as a daemon fills a cache miss.
func cellRung(ctx context.Context, tr *telemetry.Tracer, h *harness.Harness, cells []harness.Job, res *result) error {
	ctx, root := tr.StartSpan(ctx, "bench.harness_cells", telemetry.Int("cells", len(cells)))
	defer root.End()
	var nat, man []float64
	for _, j := range cells {
		_, sp := tr.StartSpan(ctx, "harness.measure_uncached", telemetry.String("benchmark", j.Bench.Name))
		c0 := time.Now()
		if _, err := h.MeasureUncached(j.Bench, j.CP); err != nil {
			return err
		}
		us := time.Since(c0).Seconds() * 1e6
		sp.End()
		if j.Bench.Managed() {
			man = append(man, us)
		} else {
			nat = append(nat, us)
		}
	}
	res.set("harness.cell_us_native", mean64(nat), "us")
	res.set("harness.cell_us_managed", mean64(man), "us")
	return nil
}

func mean64(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// studyRungs times the study-level layers on a fresh harness: the
// normalization reference from cold, the grid alone, and both CSV
// streams over the already-measured study. It returns the grid's CPU
// per cell.
func studyRungs(ctx context.Context, tr *telemetry.Tracer, seed int64, res *result) (time.Duration, error) {
	cold, err := harness.New(seed)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	var ref *harness.Reference
	if err := span(ctx, tr, "harness.reference", func(context.Context) (err error) {
		ref, err = cold.Reference()
		return err
	}); err != nil {
		return 0, err
	}
	res.set("experiments.reference_ms", time.Since(t0).Seconds()*1e3, "ms")

	h, err := harness.New(seed)
	if err != nil {
		return 0, err
	}
	grid := harness.GridJobs(proc.ConfigSpace(), nil)
	u0 := readUsage()
	t0 = time.Now()
	if err := span(ctx, tr, "harness.measure_grid", func(ctx context.Context) error {
		_, err := h.MeasureBatch(ctx, grid, 0)
		return err
	}); err != nil {
		return 0, err
	}
	res.set("harness.grid_s", time.Since(t0).Seconds(), "s")
	cellCPU := readUsage().sub(u0).cpu / time.Duration(len(grid))

	if ref, err = h.Reference(); err != nil { // every cell is cached by now
		return 0, err
	}
	c := &experiments.Context{H: h, Ref: ref}
	var buf bytes.Buffer
	t0 = time.Now()
	if err := span(ctx, tr, "experiments.csv", func(ctx context.Context) error {
		if err := experiments.StreamMeasurementsCSV(ctx, c, nil, &buf, 0); err != nil {
			return err
		}
		return experiments.StreamAggregatesCSV(ctx, c, nil, &buf, 0)
	}); err != nil {
		return 0, err
	}
	res.set("experiments.csv_ms", time.Since(t0).Seconds()*1e3, "ms")
	return cellCPU, nil
}
