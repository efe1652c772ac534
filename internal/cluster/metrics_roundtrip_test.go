package cluster

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// roundTripMetrics lints and parses a scheduler's metrics page and
// checks it survives render→parse intact, returning the families.
func roundTripMetrics(t *testing.T, text string) []telemetry.MetricFamily {
	t.Helper()
	if problems := telemetry.LintPrometheus(text); len(problems) != 0 {
		t.Fatalf("metrics lint problems: %v", problems)
	}
	fams, err := telemetry.ParsePrometheus(text)
	if err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	var rendered bytes.Buffer
	telemetry.RenderPrometheus(&rendered, fams)
	again, err := telemetry.ParsePrometheus(rendered.String())
	if err != nil {
		t.Fatalf("rendered metrics do not re-parse: %v", err)
	}
	if !reflect.DeepEqual(fams, again) {
		t.Fatal("metrics round-trip lost information")
	}
	return fams
}

// TestSchedulerMetricsRoundTrip is the exposition guard for the
// scheduler's metrics page: WriteMetrics must lint clean, parse, and
// survive render→parse with every family — including the per-backend
// breaker_state samples, whose URL label values exercise the escaping
// path — intact. One puller serves two backends, so it drains the other
// backend's home too and cells_away is nonzero; the rendered counter
// must carry exactly the Stats value.
func TestSchedulerMetricsRoundTrip(t *testing.T) {
	_, ts0, _ := newBackend(t, service.Options{Seed: 42})
	_, ts1, _ := newBackend(t, service.Options{Seed: 42})
	s, err := NewScheduler([]string{ts0.URL, ts1.URL}, SchedulerOptions{Seed: seedPtr(42), LeaseCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MeasureBatch(context.Background(), stockJobs(t, 2), 1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CellsAway == 0 {
		t.Fatalf("one puller over two homes delivered no away cells; stats %+v", st)
	}

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	var away *telemetry.MetricFamily
	breaker := false
	fams := roundTripMetrics(t, buf.String())
	for i := range fams {
		switch fams[i].Name {
		case "powerperf_sched_cells_away_total":
			if away != nil {
				t.Fatal("powerperf_sched_cells_away_total rendered twice")
			}
			away = &fams[i]
		case "powerperf_sched_breaker_state":
			breaker = true
			if len(fams[i].Samples) != 2 {
				t.Fatalf("breaker_state samples: %+v, want one per backend", fams[i].Samples)
			}
			for j, want := range s.Backends() {
				if v, ok := fams[i].Samples[j].Label("backend"); !ok || v != want {
					t.Fatalf("breaker_state sample %d backend label %q, want %q", j, v, want)
				}
			}
		}
	}
	if !breaker {
		t.Fatal("scheduler metrics missing powerperf_sched_breaker_state")
	}
	if away == nil || len(away.Samples) != 1 {
		t.Fatalf("scheduler metrics: cells_away family %+v, want one sample", away)
	}
	if got := away.Samples[0].Value; got != float64(st.CellsAway) {
		t.Fatalf("cells_away_total = %v, want %d", got, st.CellsAway)
	}
}
