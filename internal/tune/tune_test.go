package tune

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestPointsDeterministicCrossProduct(t *testing.T) {
	g := Grid{
		Workers:     []int{1, 2},
		CacheShards: []int{4, 16},
		BatchSizes:  []int{8, 61},
	}
	a, b := g.Points(), g.Points()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Points is not deterministic")
	}
	if len(a) != 2*2*2 {
		t.Fatalf("got %d points, want 8", len(a))
	}
	// Axis-major order: workers outermost, batch size innermost.
	want0 := Point{Workers: 1, CacheShards: 4, BatchSize: 8}
	if a[0] != want0 {
		t.Fatalf("first point %+v, want %+v", a[0], want0)
	}
	if want1 := (Point{Workers: 1, CacheShards: 4, BatchSize: 61}); a[1] != want1 {
		t.Fatalf("second point %+v, want %+v", a[1], want1)
	}
	wantLast := Point{Workers: 2, CacheShards: 16, BatchSize: 61}
	if a[len(a)-1] != wantLast {
		t.Fatalf("last point %+v, want %+v", a[len(a)-1], wantLast)
	}
}

func TestPointsEmptyAxesCollapse(t *testing.T) {
	pts := Grid{}.Points()
	if len(pts) != 1 {
		t.Fatalf("empty grid expands to %d points, want 1 all-default point", len(pts))
	}
	if pts[0] != (Point{}) {
		t.Fatalf("default point %+v, want zero point", pts[0])
	}
}

func TestSelectKneePrefersFrugalWithinTolerance(t *testing.T) {
	results := []Result{
		{Point: Point{Workers: 8, BatchSize: 61}, Seconds: 1.00},
		{Point: Point{Workers: 2, BatchSize: 61}, Seconds: 1.05}, // within 10% of best, cheaper
		{Point: Point{Workers: 1, BatchSize: 61}, Seconds: 1.50}, // cheapest but too slow
	}
	knee, err := selectKnee(results)
	if err != nil {
		t.Fatal(err)
	}
	if knee.Point.Workers != 2 {
		t.Fatalf("knee picked workers=%d, want the frugal in-tolerance point (2)", knee.Point.Workers)
	}
}

// TestZeroBatchResolvesToLeaseDefault: BatchSize 0 means the
// scheduler's default lease (16 cells), so a zero-batch knee must
// render as -batch-size 16 and rank as 16 cells, not as a 61-cell
// batch.
func TestZeroBatchResolvesToLeaseDefault(t *testing.T) {
	rep := &Report{Knee: Point{}}
	if got, want := rep.FullstudyFlags(), "-batch-size 16"; got != want {
		t.Fatalf("zero-batch knee renders %q, want %q", got, want)
	}
	if got, want := rep.Env()[2], "POWERPERF_BATCH_SIZE=16"; got != want {
		t.Fatalf("zero-batch knee env %q, want %q", got, want)
	}
	if !cheaper(Point{BatchSize: 0}, Point{BatchSize: 32}) {
		t.Fatal("default batch (16) ranked costlier than 32")
	}
	if !cheaper(Point{BatchSize: 8}, Point{BatchSize: 0}) {
		t.Fatal("8-cell batch ranked costlier than the default (16)")
	}
}

func TestSelectKneeEmpty(t *testing.T) {
	if _, err := selectKnee(nil); err == nil {
		t.Fatal("empty results accepted")
	}
}

// TestRunSweepsAndSelects drives the full tuner against in-process
// backends on a tiny grid: every point must score, and the knee must be
// one of the swept points.
func TestRunSweepsAndSelects(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live calibration clusters")
	}
	grid := Grid{BatchSizes: []int{16, 61}}
	var logged []string
	rep, err := Run(context.Background(), Config{
		Seed:     42,
		Configs:  1,
		Backends: 2,
		Logf:     func(f string, a ...any) { logged = append(logged, f) },
	}, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("scored %d points, want 2", len(rep.Results))
	}
	found := false
	for _, r := range rep.Results {
		if r.Seconds <= 0 {
			t.Fatalf("point %s scored non-positive time %v", r.Point, r.Seconds)
		}
		if r.Cells != 61 {
			t.Fatalf("point %s measured %d cells, want 61", r.Point, r.Cells)
		}
		if r.Point == rep.Knee {
			found = true
			if r.Seconds != rep.KneeSeconds {
				t.Fatalf("knee seconds %v does not match its result %v", rep.KneeSeconds, r.Seconds)
			}
		}
	}
	if !found {
		t.Fatalf("knee %+v is not one of the swept points", rep.Knee)
	}
	if rep.KneeSeconds > rep.Best*KneeTolerance {
		t.Fatalf("knee time %v outside tolerance of best %v", rep.KneeSeconds, rep.Best)
	}
	if len(logged) != 2 {
		t.Fatalf("Logf called %d times, want once per point", len(logged))
	}
	if !strings.Contains(rep.PowerperfdFlags(), "-cache-shards") {
		t.Fatalf("bad powerperfd flags: %q", rep.PowerperfdFlags())
	}
	if !strings.Contains(rep.FullstudyFlags(), "-batch-size") {
		t.Fatalf("bad fullstudy flags: %q", rep.FullstudyFlags())
	}
	if len(rep.Env()) != 3 {
		t.Fatalf("Env emitted %d entries, want 3", len(rep.Env()))
	}
}
