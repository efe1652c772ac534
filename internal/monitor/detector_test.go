package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/telemetry"
)

// seedSeries pushes vals into one series at 1s spacing.
func seedSeries(d *alert.Detector, backend, key string, vals ...float64) {
	for i, v := range vals {
		d.Push(backend, key, ts(i), v)
	}
}

// newTestDetector builds a detector with the given ring capacity and
// series cap, a one-minute retention, and a test logger.
func newTestDetector(ringCap, maxSeries int, rules ...alert.Rule) *alert.Detector {
	return alert.NewDetector(rules, ringCap, maxSeries, time.Minute, telemetry.Logger("monitor-test"))
}

const be = "http://backend-a"

func TestThresholdLifecycle(t *testing.T) {
	rule := alert.Rule{Name: "backend_down", Series: "up", Kind: alert.KindThreshold, Cmp: alert.Below, Value: 1, For: 2, Clear: 2}
	d := newTestDetector(16, 32, rule)

	// Healthy: no alert at all.
	seedSeries(d, be, "up", 1)
	d.Evaluate([]string{be}, ts(0))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("healthy backend raised %v", got)
	}

	// First breach: pending, not yet firing.
	d.Push(be, "up", ts(1), 0)
	d.Evaluate([]string{be}, ts(1))
	alerts := d.Alerts()
	if len(alerts) != 1 || alerts[0].State != alert.StatePending {
		t.Fatalf("after one breach: %+v, want one pending alert", alerts)
	}
	if alerts[0].PendingSince != ts(1) {
		t.Fatalf("PendingSince=%v, want %v", alerts[0].PendingSince, ts(1))
	}

	// Second consecutive breach: firing.
	d.Push(be, "up", ts(2), 0)
	d.Evaluate([]string{be}, ts(2))
	alerts = d.Alerts()
	if len(alerts) != 1 || alerts[0].State != alert.StateFiring {
		t.Fatalf("after For breaches: %+v, want firing", alerts)
	}
	if d.FiringCount() != 1 {
		t.Fatalf("FiringCount=%d, want 1", d.FiringCount())
	}
	if !alerts[0].PendingSince.Before(alerts[0].FiringSince) {
		t.Fatalf("lifecycle out of order: pending %v !< firing %v",
			alerts[0].PendingSince, alerts[0].FiringSince)
	}

	// One clean cycle is not enough to resolve.
	d.Push(be, "up", ts(3), 1)
	d.Evaluate([]string{be}, ts(3))
	if got := d.Alerts(); got[0].State != alert.StateFiring {
		t.Fatalf("after one clean cycle: %v, want still firing", got[0].State)
	}

	// Second clean cycle: resolved, timestamps strictly ordered.
	d.Push(be, "up", ts(4), 1)
	d.Evaluate([]string{be}, ts(4))
	alerts = d.Alerts()
	if len(alerts) != 1 || alerts[0].State != alert.StateResolved {
		t.Fatalf("after Clear clean cycles: %+v, want resolved", alerts)
	}
	a := alerts[0]
	if !(a.PendingSince.Before(a.FiringSince) && a.FiringSince.Before(a.ResolvedSince)) {
		t.Fatalf("lifecycle timestamps out of order: %v %v %v",
			a.PendingSince, a.FiringSince, a.ResolvedSince)
	}

	// Retention: the resolved alert ages out.
	d.Evaluate([]string{be}, ts(4).Add(2*time.Minute))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("resolved alert survived retention: %+v", got)
	}
}

func TestPendingThatClearsIsNoise(t *testing.T) {
	d := newTestDetector(16, 32, alert.Rule{Name: "down", Series: "up", Kind: alert.KindThreshold, Cmp: alert.Below, Value: 1, For: 3})

	d.Push(be, "up", ts(0), 0)
	d.Evaluate([]string{be}, ts(0))
	if got := d.Alerts(); len(got) != 1 || got[0].State != alert.StatePending {
		t.Fatalf("want pending, got %+v", got)
	}
	d.Push(be, "up", ts(1), 1)
	d.Evaluate([]string{be}, ts(1))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("pending that cleared should vanish, got %+v", got)
	}
}

func TestRateRule(t *testing.T) {
	d := newTestDetector(16, 32, alert.Rule{Name: "breaker_opening", Series: "opens", Kind: alert.KindRate, Cmp: alert.Above, Value: 0, Window: 5, For: 1})

	seedSeries(d, be, "opens", 3, 3, 3)
	d.Evaluate([]string{be}, ts(2))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("flat counter raised %+v", got)
	}
	d.Push(be, "opens", ts(3), 5)
	d.Evaluate([]string{be}, ts(3))
	got := d.Alerts()
	if len(got) != 1 || !strings.Contains(got[0].Reason, "rate") {
		t.Fatalf("rising counter: %+v, want one rate alert", got)
	}
}

func TestCIRuleDetectsRegression(t *testing.T) {
	rule := alert.Rule{
		Name: "latency_regressed", Series: "lat", Kind: alert.KindCI, Cmp: alert.Above,
		Window: 5, Baseline: 20, RelTol: 0.05, For: 1,
	}
	d := newTestDetector(64, 32, rule)

	// Stable baseline with mild alternation, then a 3x step: the recent
	// mean leaves the Student-t interval decisively.
	var vals []float64
	for i := 0; i < 20; i++ {
		vals = append(vals, 0.100+0.002*float64(i%5))
	}
	for i := 0; i < 5; i++ {
		vals = append(vals, 0.300)
	}
	seedSeries(d, be, "lat", vals...)
	d.Evaluate([]string{be}, ts(len(vals)))
	got := d.Alerts()
	if len(got) != 1 || got[0].State != alert.StateFiring {
		t.Fatalf("3x latency step: %+v, want an immediately-firing CI alert (For=1)", got)
	}
	if !strings.Contains(got[0].Reason, "t-CI") {
		t.Fatalf("Reason=%q, want a t-CI explanation", got[0].Reason)
	}

	// The same shape without the step stays quiet.
	d2 := newTestDetector(64, 32, rule)
	var flat []float64
	for i := 0; i < 25; i++ {
		flat = append(flat, 0.100+0.002*float64(i%5))
	}
	seedSeries(d2, be, "lat", flat...)
	d2.Evaluate([]string{be}, ts(len(flat)))
	if got := d2.Alerts(); len(got) != 0 {
		t.Fatalf("stable series raised %+v", got)
	}
}

func TestCIRuleRobustVariantShrugsOffOutlier(t *testing.T) {
	// One wild outlier in the baseline blows up a t-interval's width but
	// barely moves a bootstrap-of-median interval: the robust rule still
	// catches the regression.
	var vals []float64
	for i := 0; i < 19; i++ {
		vals = append(vals, 0.100+0.001*float64(i%4))
	}
	vals = append(vals, 5.0) // the outlier scrape
	for i := 0; i < 5; i++ {
		vals = append(vals, 0.200)
	}
	d := newTestDetector(64, 32, alert.Rule{
		Name: "robust", Series: "lat", Kind: alert.KindCI, Cmp: alert.Above,
		Window: 5, Baseline: 20, RelTol: 0.10, Robust: true, For: 1,
	})
	seedSeries(d, be, "lat", vals...)
	d.Evaluate([]string{be}, ts(len(vals)))
	got := d.Alerts()
	if len(got) != 1 {
		t.Fatalf("robust CI missed the regression past an outlier: %+v", got)
	}
	if !strings.Contains(got[0].Reason, "bootstrap") {
		t.Fatalf("Reason=%q, want a bootstrap-CI explanation", got[0].Reason)
	}
}

func TestTrendRule(t *testing.T) {
	d := newTestDetector(64, 32, alert.Rule{
		Name: "drifting_up", Series: "v", Kind: alert.KindTrend, Cmp: alert.Above,
		Window: 12, Value: 0.10, MinR2: 0.5, For: 1,
	})
	// Clean linear climb: 20% across the window with near-perfect fit.
	var vals []float64
	for i := 0; i < 12; i++ {
		vals = append(vals, 1.0+0.02*float64(i))
	}
	seedSeries(d, be, "v", vals...)
	d.Evaluate([]string{be}, ts(12))
	if got := d.Alerts(); len(got) != 1 {
		t.Fatalf("linear drift: %+v, want one trend alert", got)
	}

	// Pure noise with no slope stays quiet (R2 gate).
	d2 := newTestDetector(64, 32, alert.Rule{
		Name: "drifting_up", Series: "v", Kind: alert.KindTrend, Cmp: alert.Above,
		Window: 12, Value: 0.10, MinR2: 0.5, For: 1,
	})
	noise := []float64{1, 1.3, 0.8, 1.1, 0.9, 1.2, 1.0, 0.7, 1.3, 1.0, 0.9, 1.1}
	seedSeries(d2, be, "v", noise...)
	d2.Evaluate([]string{be}, ts(12))
	if got := d2.Alerts(); len(got) != 0 {
		t.Fatalf("noise raised a trend alert: %+v", got)
	}
}

func TestGoldenRule(t *testing.T) {
	d := newTestDetector(16, 32, alert.Rule{
		Name: "power_drift", Series: "pkg_watts", Kind: alert.KindGolden,
		Value: 42.0, RelTol: 0.02, For: 1,
	})
	d.Push(be, "pkg_watts", ts(0), 42.5)
	d.Evaluate([]string{be}, ts(0))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("within tolerance raised %+v", got)
	}
	d.Push(be, "pkg_watts", ts(1), 44.0)
	d.Evaluate([]string{be}, ts(1))
	got := d.Alerts()
	if len(got) != 1 || !strings.Contains(got[0].Reason, "golden") {
		t.Fatalf("4.8%% golden drift: %+v, want one alert", got)
	}
}

func TestWarmupSuppression(t *testing.T) {
	d := newTestDetector(64, 32, alert.Rule{
		Name: "ci", Series: "lat", Kind: alert.KindCI, Cmp: alert.Above, Window: 5, Baseline: 20, For: 1,
	})
	// 10 samples is under Baseline+Window: the rule must stay silent no
	// matter how wild the values are.
	seedSeries(d, be, "lat", 1, 99, 1, 99, 1, 99, 1, 99, 1, 99)
	d.Evaluate([]string{be}, ts(10))
	if got := d.Alerts(); len(got) != 0 {
		t.Fatalf("warmup window raised %+v", got)
	}
}

func TestAlertsOrdering(t *testing.T) {
	d := newTestDetector(16, 32,
		alert.Rule{Name: "a_down", Series: "up", Kind: alert.KindThreshold, Cmp: alert.Below, Value: 1, For: 1, Clear: 1},
		alert.Rule{Name: "b_slow", Series: "lat", Kind: alert.KindThreshold, Cmp: alert.Above, Value: 1, For: 5},
	)
	be2, be3 := "http://backend-b", "http://backend-c"
	// be3 goes down first and recovers, leaving a resolved a_down.
	d.Push(be3, "up", ts(0), 0)
	d.Evaluate([]string{be3}, ts(0))
	d.Push(be3, "up", ts(1), 1)
	d.Evaluate([]string{be3}, ts(1))
	d.Push(be, "up", ts(1), 0)
	d.Push(be2, "lat", ts(1), 2)
	d.Evaluate([]string{be, be2}, ts(1))
	got := d.Alerts()
	if len(got) != 3 {
		t.Fatalf("want 3 alerts, got %+v", got)
	}
	// Firing ranks before pending before resolved regardless of rule
	// name or backend.
	if got[0].State != alert.StateFiring || got[0].Rule != "a_down" || got[0].Backend != be {
		t.Fatalf("first alert %+v, want firing a_down on %s", got[0], be)
	}
	if got[1].State != alert.StatePending || got[1].Rule != "b_slow" {
		t.Fatalf("second alert %+v, want pending b_slow", got[1])
	}
	if got[2].State != alert.StateResolved || got[2].Rule != "a_down" || got[2].Backend != be3 {
		t.Fatalf("third alert %+v, want resolved a_down on %s", got[2], be3)
	}
}
