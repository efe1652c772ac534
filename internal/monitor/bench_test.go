package monitor_test

import (
	"context"
	"log/slog"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/proc"
	"repro/internal/profiling"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// BenchmarkStudyMonitored quantifies the monitoring overhead gate (<2%
// against the unmonitored path, recorded in BENCH_pr5.json): a
// 2-backend scheduled study with the scrape federation loop and detector
// sweeping every 250ms throughout — 20x the production default rate, so
// the gate holds a wide margin over real deployments. (On a single-core
// host every scrape cycle comes straight out of the study's wall clock,
// so this is the conservative end of the measurement.)
//
// Set MONITOR_BENCH_CPUPROFILE / MONITOR_BENCH_MEMPROFILE to capture
// pprof profiles of a run (one benchmark at a time — the runtime allows
// a single CPU profile session).
func BenchmarkStudyMonitored(b *testing.B) {
	benchmarkStudy(b, true)
}

// BenchmarkStudyUnmonitored is the control for the overhead gate.
func BenchmarkStudyUnmonitored(b *testing.B) {
	benchmarkStudy(b, false)
}

func benchmarkStudy(b *testing.B, monitored bool) {
	// Keep the benchmark's stdout parseable: access lines and alert
	// transitions interleave with the `go test -bench` table otherwise,
	// and the CI gate parses that table with awk.
	telemetry.SetLogLevel(slog.LevelError)
	if cpu, mem := os.Getenv("MONITOR_BENCH_CPUPROFILE"), os.Getenv("MONITOR_BENCH_MEMPROFILE"); cpu != "" || mem != "" {
		stop, err := profiling.Start(cpu, mem)
		if err != nil {
			b.Fatal(err)
		}
		defer func() {
			if err := stop(); err != nil {
				b.Error(err)
			}
		}()
	}

	jobs := harness.GridJobs(proc.StockConfigs()[:6], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh backends per iteration: a cold cache makes the iteration
		// measure real study work, identically for both variants.
		ts0 := httptest.NewServer(service.NewServer(service.Options{Seed: 42}).Handler())
		ts1 := httptest.NewServer(service.NewServer(service.Options{Seed: 42}).Handler())
		backends := []string{ts0.URL, ts1.URL}
		sched, err := cluster.NewScheduler(backends, cluster.SchedulerOptions{Seed: seedPtr(42)})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if monitored {
			mon := monitor.New(backends, monitor.Options{
				Interval: 250 * time.Millisecond,
				Jitter:   time.Millisecond,
				Timeout:  2 * time.Second,
				Seed:     7,
			})
			mon.Start(ctx)
			// Let the startup sweep (ring allocation, the first trace
			// scrape) complete outside the timed region: a production
			// monitor is long-lived, so the gate measures what it costs
			// in steady state, not what it costs to boot.
			for mon.Sweeps() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		b.StartTimer()

		if _, err := sched.MeasureBatch(ctx, jobs, 0); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		cancel()
		ts0.Close()
		ts1.Close()
		b.StartTimer()
	}
}
