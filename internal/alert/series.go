package alert

import (
	"sort"
	"time"
)

// The detector's series store holds every pushed series: target ->
// series key -> ring. All bounds are fixed at construction — ring
// capacity per series and a series-count cap per target — so a
// misbehaving backend that mints new label values cannot grow the
// detector without bound; series beyond the cap are counted as dropped
// rather than stored.

type targetSeries struct {
	rings   map[string]*Ring
	dropped int64
}

// Push appends one sample to target's series, creating the ring on
// first sight unless the target is at its series cap.
func (d *Detector) Push(target, series string, t time.Time, v float64) {
	d.seriesMu.Lock()
	defer d.seriesMu.Unlock()
	ts := d.targets[target]
	if ts == nil {
		ts = &targetSeries{rings: make(map[string]*Ring)}
		d.targets[target] = ts
	}
	r := ts.rings[series]
	if r == nil {
		if len(ts.rings) >= d.maxSeries {
			ts.dropped++
			return
		}
		r = NewRing(d.ringCap)
		ts.rings[series] = r
	}
	r.Push(Sample{T: t, V: v})
}

// ring returns a series' ring, nil when absent. Caller holds seriesMu.
func (d *Detector) ring(target, series string) *Ring {
	if ts := d.targets[target]; ts != nil {
		return ts.rings[series]
	}
	return nil
}

// Tail copies the newest n samples of target's series oldest-first
// (nil when the series is absent).
func (d *Detector) Tail(target, series string, n int) []Sample {
	d.seriesMu.RLock()
	defer d.seriesMu.RUnlock()
	if r := d.ring(target, series); r != nil {
		return r.Tail(n)
	}
	return nil
}

// Last returns the newest value of target's series.
func (d *Detector) Last(target, series string) (float64, bool) {
	d.seriesMu.RLock()
	defer d.seriesMu.RUnlock()
	if r := d.ring(target, series); r != nil {
		s, ok := r.Last()
		return s.V, ok
	}
	return 0, false
}

// SeriesKeys lists the series held for one target, sorted.
func (d *Detector) SeriesKeys(target string) []string {
	d.seriesMu.RLock()
	defer d.seriesMu.RUnlock()
	ts := d.targets[target]
	if ts == nil {
		return nil
	}
	keys := make([]string, 0, len(ts.rings))
	for k := range ts.rings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DroppedSeries reports how many pushes the series cap rejected for a
// target: a nonzero count means the target mints more series than the
// detector keeps.
func (d *Detector) DroppedSeries(target string) int64 {
	d.seriesMu.RLock()
	defer d.seriesMu.RUnlock()
	if ts := d.targets[target]; ts != nil {
		return ts.dropped
	}
	return 0
}
