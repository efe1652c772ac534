// Command fullstudy regenerates the study's complete dataset — every
// benchmark on every one of the 45 processor configurations — and writes
// it as CSV, the analog of the paper's companion dataset in the ACM
// Digital Library ("We make all our data publicly available to encourage
// others to use it and perform further analysis").
//
// Usage:
//
//	fullstudy [-seed N] [-out DIR] [-backends URL,URL,...] [-lease-expiry D]
//	          [-batch-size N] [-trace-out trace.json]
//
// With -backends the study runs remotely against a fleet of powerperfd
// instances through the pull-based work-stealing scheduler: every cell
// has a rendezvous-hashed home backend, each home's cells are sliced
// into leases that its backend pulls front to back (so repeated cells
// hit that backend's cache), a backend whose home is drained takes
// other homes' leases from the back, results stream back cell-by-cell
// over NDJSON, a failed lease is re-dispatched, and a lease that
// stalls — straggler or death — is stolen by an idle backend with the
// first result per cell winning. The CSVs are byte-identical to a
// local run, because every cell is a pure function of its identity no
// matter which backend computes it.
//
// With -trace-out the run records spans of every batch, cell, and (in
// remote mode) lease, and writes them as Chrome trace-event JSON — load
// the file in chrome://tracing or Perfetto for a flame view of where
// the study spent its time. Tracing never changes the dataset's bytes.
//
// Writes:
//
//	DIR/measurements.csv  per (configuration, benchmark) raw results
//	DIR/aggregates.csv    per configuration group-weighted aggregates
//	DIR/MANIFEST.txt      provenance: seed, configuration count, columns
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	powerperf "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

var logger = telemetry.Logger("fullstudy")

func fatal(msg string, err error) {
	logger.Error(msg, slog.Any("error", err))
	os.Exit(1)
}

func main() {
	seed := flag.Int64("seed", 42, "study seed")
	out := flag.String("out", "dataset", "output directory")
	backends := flag.String("backends", "", "comma-separated powerperfd base URLs; when set, measure remotely")
	leaseExpiry := flag.Duration("lease-expiry", 2*time.Second, "steal a lease after it delivers no cell for this long (with -backends)")
	batchSize := flag.Int("batch-size", 0, "cells per scheduling block (local) or per lease (with -backends, default 16); 0 = automatic. Tune with `powerperf tune`")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's spans to this file")
	traceBuffer := flag.Int("trace-buffer", 65536, "completed spans retained for -trace-out")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// A negative batch size would silently fall back to the automatic
	// block (local) or the 16-cell lease (remote) — reject it so a
	// typo'd flag fails loudly instead of changing the schedule.
	if *batchSize < 0 {
		fatal("flags", fmt.Errorf("-batch-size must be >= 0 (0 = automatic), got %d", *batchSize))
	}

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal("profiling", err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fatal("profiling", err)
		}
	}()

	// Interrupt aborts the grid at measurement-cell granularity.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracer(*traceBuffer)
	}

	start := time.Now()
	measurements, aggregates, err := streamers(ctx, *seed, *backends, *leaseExpiry, *batchSize, tracer)
	if err != nil {
		fatal("setup", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("output directory", err)
	}

	space := powerperf.ConfigSpace()
	logger.Info("measuring", slog.Int("configurations", len(space)), slog.Int("benchmarks", 61))
	if err := writeCSV(ctx, filepath.Join(*out, "measurements.csv"), measurements); err != nil {
		fatal("measurements.csv", err)
	}
	if err := writeCSV(ctx, filepath.Join(*out, "aggregates.csv"), aggregates); err != nil {
		fatal("aggregates.csv", err)
	}
	manifest := fmt.Sprintf(
		"powerperf full study dataset\nseed: %d\nconfigurations: %d\nbenchmarks: %d\nrows: %d measurements, %d aggregates\ngenerated in: %s\n",
		*seed, len(space), 61, len(space)*61, len(space)*5, time.Since(start).Round(time.Millisecond))
	if err := os.WriteFile(filepath.Join(*out, "MANIFEST.txt"), []byte(manifest), 0o644); err != nil {
		fatal("MANIFEST.txt", err)
	}
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fatal("trace export", err)
		}
		logger.Info("wrote trace", slog.String("path", *traceOut),
			slog.Int("spans", len(tracer.Snapshot())))
	}
	logger.Info("wrote dataset", slog.String("dir", *out),
		slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)))
}

type streamFunc = func(ctx context.Context, w io.Writer) error

// streamers builds the two CSV writers, local (in-process harness) or
// remote (the scheduler over powerperfd backends). All paths produce
// byte-identical files at the same seed, traced or not, at any batch
// or lease size — scheduling is pure plumbing under the determinism
// contract.
func streamers(ctx context.Context, seed int64, backends string, leaseExpiry time.Duration, batchSize int, tracer *telemetry.Tracer) (measurements, aggregates streamFunc, err error) {
	if backends == "" {
		study, err := powerperf.NewStudy(seed)
		if err != nil {
			return nil, nil, err
		}
		study.SetTracer(tracer)
		if batchSize > 0 {
			if err := study.SetBlockSize(batchSize); err != nil {
				return nil, nil, err
			}
		}
		return func(ctx context.Context, w io.Writer) error {
				return study.WriteMeasurementsCSV(ctx, w, nil, 0)
			}, func(ctx context.Context, w io.Writer) error {
				return study.WriteAggregatesCSV(ctx, w, nil, 0)
			}, nil
	}

	var urls []string
	for _, u := range strings.Split(backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	src, err := cluster.NewScheduler(urls, cluster.SchedulerOptions{
		Seed: &seed, LeaseCells: batchSize, LeaseExpiry: leaseExpiry, Tracer: tracer})
	if err != nil {
		return nil, nil, err
	}
	logStats := func() {
		st := src.Stats()
		logger.Info("scheduler stats",
			slog.Int64("leases", st.LeasesIssued), slog.Int64("steals", st.Steals),
			slog.Int64("redispatches", st.Redispatches), slog.Int64("cells", st.CellsMeasured),
			slog.Int64("cells_discarded", st.CellsDiscarded),
			slog.Int64("truncations", st.StreamTruncations),
			slog.Int64("dispatch_failures", st.DispatchFailures),
			slog.Int64("breaker_opens", st.BreakerOpens))
		for _, be := range st.Backends {
			logger.Info("backend latency", slog.String("backend", be.URL),
				slog.Int64("requests", be.Requests), slog.Float64("p50_ms", be.P50Ms),
				slog.Float64("p90_ms", be.P90Ms), slog.Float64("p99_ms", be.P99Ms))
		}
	}
	src.StartProber(ctx, 2*time.Second)
	logger.Info("measuring through backends",
		slog.Int("count", len(src.Backends())),
		slog.String("backends", strings.Join(src.Backends(), ", ")))
	ref, err := src.Reference(ctx, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("building normalization reference: %w", err)
	}
	return func(ctx context.Context, w io.Writer) error {
			err := experiments.StreamMeasurementsCSVFrom(ctx, src, ref, nil, w, 0)
			logStats()
			return err
		}, func(ctx context.Context, w io.Writer) error {
			err := experiments.StreamAggregatesCSVFrom(ctx, src, ref, nil, w, 0)
			logStats()
			return err
		}, nil
}

func writeCSV(ctx context.Context, path string, stream streamFunc) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	if err := stream(ctx, fd); err != nil {
		return err
	}
	return fd.Close()
}

func writeTrace(path string, tracer *telemetry.Tracer) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	if err := tracer.WriteChromeTrace(fd, 0); err != nil {
		return err
	}
	return fd.Close()
}
