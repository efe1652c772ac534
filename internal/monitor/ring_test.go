package monitor

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/alert"
)

func ts(sec int) time.Time { return time.Unix(int64(sec), 0) }

func pushSeq(r *alert.Ring, vals ...float64) {
	for i, v := range vals {
		r.Push(alert.Sample{T: ts(i), V: v})
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := alert.NewRing(3)
	pushSeq(r, 1, 2, 3, 4, 5)
	if r.Len() != 3 {
		t.Fatalf("Len=%d, want 3", r.Len())
	}
	got := alert.Values(r.Samples())
	if want := []float64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Samples=%v, want %v", got, want)
	}
	if last, ok := r.Last(); !ok || last.V != 5 {
		t.Fatalf("Last=%v,%v, want 5,true", last.V, ok)
	}
	if got := alert.Values(r.Tail(2)); !reflect.DeepEqual(got, []float64{4, 5}) {
		t.Fatalf("Tail(2)=%v, want [4 5]", got)
	}
	if got := alert.Values(r.Tail(10)); !reflect.DeepEqual(got, []float64{3, 4, 5}) {
		t.Fatalf("Tail(10)=%v, want all live samples", got)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := alert.NewRing(0) // a series you cannot delta is not a series
	pushSeq(r, 1, 2, 3)
	if got := alert.Values(r.Samples()); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Fatalf("Samples=%v, want [2 3]", got)
	}
}

func TestRingEmpty(t *testing.T) {
	r := alert.NewRing(4)
	if _, ok := r.Last(); ok {
		t.Fatal("Last on empty ring reported ok")
	}
	if got := r.Samples(); len(got) != 0 {
		t.Fatalf("Samples on empty ring = %v", got)
	}
	if s := r.At(0); s != (alert.Sample{}) {
		t.Fatalf("At(0) on empty ring = %v", s)
	}
}

func TestCounterDeltasHandlesReset(t *testing.T) {
	samples := []alert.Sample{
		{T: ts(0), V: 10}, {T: ts(1), V: 15}, {T: ts(2), V: 3}, {T: ts(3), V: 7},
	}
	got := alert.CounterDeltas(samples)
	// The drop 15->3 is a process restart: the post-reset value 3 counts
	// as that interval's whole increase.
	if want := []float64{5, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CounterDeltas=%v, want %v", got, want)
	}
}

func TestRate(t *testing.T) {
	samples := []alert.Sample{{T: ts(0), V: 0}, {T: ts(10), V: 30}}
	if got := alert.Rate(samples); got != 3 {
		t.Fatalf("Rate=%v, want 3/s", got)
	}
	if got := alert.Rate(samples[:1]); got != 0 {
		t.Fatalf("Rate of one sample = %v, want 0", got)
	}
	same := []alert.Sample{{T: ts(5), V: 1}, {T: ts(5), V: 2}}
	if got := alert.Rate(same); got != 0 {
		t.Fatalf("Rate over zero span = %v, want 0", got)
	}
}

func TestStoreSeriesCap(t *testing.T) {
	d := newTestDetector(4, 2)
	d.Push("be", "a", ts(0), 1)
	d.Push("be", "b", ts(0), 2)
	d.Push("be", "c", ts(0), 3) // over the cap: dropped
	d.Push("be", "a", ts(1), 4) // existing series still grows
	if keys := d.SeriesKeys("be"); !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("SeriesKeys=%v, want [a b]", keys)
	}
	if n := d.DroppedSeries("be"); n != 1 {
		t.Fatalf("DroppedSeries=%d, want 1", n)
	}
	if v, ok := d.Last("be", "a"); !ok || v != 4 {
		t.Fatalf("Last(a)=%v,%v, want 4,true", v, ok)
	}
	if got := d.Tail("be", "c", 4); got != nil { // the whole ring
		t.Fatalf("Tail(c)=%v, want nil", got)
	}
	if got := d.Tail("missing", "a", 3); got != nil {
		t.Fatalf("Tail on unknown backend = %v, want nil", got)
	}
}
