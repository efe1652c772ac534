package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/workload"
)

// Query filters stored measurement rows. Zero-valued fields match
// everything; string fields are exact matches against the paper's
// shorthand forms ("i7 (45)", "lusearch", "4C2T@2.7GHz TB").
type Query struct {
	Processor string
	Benchmark string
	// Config matches the compact configuration notation rendered by
	// proc.Config.String().
	Config string
	// Seed, when non-nil, selects studies sealed under that seed.
	Seed *int64
	// Since/Until bound the seal time (inclusive since, exclusive
	// until); zero values are unbounded.
	Since time.Time
	Until time.Time
}

// MatchMeta reports whether a segment can contain matching rows.
func (q Query) MatchMeta(m Meta) bool {
	if q.Seed != nil && m.Seed != *q.Seed {
		return false
	}
	sealed := m.SealedTime()
	if !q.Since.IsZero() && sealed.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !sealed.Before(q.Until) {
		return false
	}
	return true
}

// matchRow reports whether one row passes the per-row filters.
func (q Query) matchRow(r *Row) bool {
	if q.Processor != "" && r.Processor != q.Processor {
		return false
	}
	if q.Benchmark != "" && r.Benchmark != q.Benchmark {
		return false
	}
	if q.Config != "" && r.ConfigString() != q.Config {
		return false
	}
	return true
}

// ConfigString renders the row's configuration in the paper's compact
// notation — the same bytes proc.Config.String() produces, so filters
// and CSV rows agree with the live system.
func (r *Row) ConfigString() string {
	return proc.Config{Cores: r.Cores, SMTWays: r.SMTWays, ClockGHz: r.ClockGHz, Turbo: r.Turbo}.String()
}

// RowRecord is one matching row with its study identity attached.
type RowRecord struct {
	StudyID uint64
	Seed    int64
	Sealed  int64
	Row     Row
}

// Rows returns the rows matching q in log order, capped at limit
// (limit <= 0 means unlimited).
func (s *Store) Rows(q Query, limit int) ([]RowRecord, error) {
	var out []RowRecord
	for _, m := range s.Studies() {
		if !q.MatchMeta(m) {
			continue
		}
		st, err := s.Load(m)
		if err != nil {
			return nil, err
		}
		for i := range st.Rows {
			if !q.matchRow(&st.Rows[i]) {
				continue
			}
			out = append(out, RowRecord{StudyID: st.ID, Seed: st.Seed, Sealed: st.SealedUnixNano, Row: st.Rows[i]})
			if limit > 0 && len(out) >= limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// ErrMissingCell marks a dataset lookup for a cell the store has no row
// for.
var ErrMissingCell = errors.New("store: cell not in stored dataset")

// Dataset is a queried slice of the store materialized as harness
// measurements, keyed by cell identity with later studies winning on
// duplicates (the determinism contract makes duplicates bit-identical,
// so the choice is moot for same-seed data). It satisfies the
// experiments.Source interface and harness.MeasureFunc, so the live
// aggregation (harness.AggregateConfig) and CSV export
// (experiments.Stream*CSVFrom) code paths run unchanged over stored
// data — stored aggregates match live ones exactly because they are
// computed by the same code in the same order from bit-identical
// inputs.
type Dataset struct {
	byCell map[string]*harness.Measurement
	cps    []proc.ConfiguredProcessor
	seeds  map[int64]int
}

// Collect scans the store and materializes the rows matching q.
func (s *Store) Collect(q Query) (*Dataset, error) {
	benches := workload.All()
	benchByName := make(map[string]*workload.Benchmark, len(benches))
	for _, b := range benches {
		benchByName[b.Name] = b
	}
	fleet := proc.Fleet()
	procByName := make(map[string]*proc.Processor, len(fleet))
	for _, p := range fleet {
		procByName[p.Name] = p
	}
	d := &Dataset{byCell: make(map[string]*harness.Measurement), seeds: make(map[int64]int)}
	seenCP := make(map[string]bool)
	for _, m := range s.Studies() {
		if !q.MatchMeta(m) {
			continue
		}
		st, err := s.Load(m)
		if err != nil {
			return nil, err
		}
		for i := range st.Rows {
			r := &st.Rows[i]
			if !q.matchRow(r) {
				continue
			}
			b, ok := benchByName[r.Benchmark]
			if !ok {
				return nil, fmt.Errorf("store: workload: unknown benchmark %q in study %x", r.Benchmark, st.ID)
			}
			p, ok := procByName[r.Processor]
			if !ok {
				return nil, fmt.Errorf("store: proc: unknown processor %q in study %x", r.Processor, st.ID)
			}
			cp := proc.ConfiguredProcessor{Proc: p, Config: proc.Config{
				Cores: r.Cores, SMTWays: r.SMTWays, ClockGHz: r.ClockGHz, Turbo: r.Turbo,
			}}
			key := r.Benchmark + "|" + cp.String()
			d.byCell[key] = r.Measurement(b, cp)
			d.seeds[st.Seed]++
			if cpKey := cp.String(); !seenCP[cpKey] {
				seenCP[cpKey] = true
				d.cps = append(d.cps, cp)
			}
		}
	}
	return d, nil
}

// Measurement reconstructs the harness measurement a row was flattened
// from. Per-run samples are not persisted; Runs carries the recorded
// run count (the only per-run property the dataset CSVs report).
func (r *Row) Measurement(b *workload.Benchmark, cp proc.ConfiguredProcessor) *harness.Measurement {
	return &harness.Measurement{
		Bench:    b,
		CP:       cp,
		Runs:     make([]harness.RunSample, r.Runs),
		Seconds:  r.Seconds,
		Watts:    r.Watts,
		EnergyJ:  r.EnergyJ,
		Counters: r.Counters,
		TimeCI:   r.TimeCI.Stats(),
		PowerCI:  r.PowerCI.Stats(),
	}
}

// Cells reports how many distinct cells the dataset holds.
func (d *Dataset) Cells() int { return len(d.byCell) }

// Seeds lists the seeds contributing rows, ascending.
func (d *Dataset) Seeds() []int64 {
	out := make([]int64, 0, len(d.seeds))
	for s := range d.seeds {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Configs returns the distinct configurations present, in the canonical
// study order (proc.ConfigSpace) first, then any others sorted by
// label. The canonical ordering keeps aggregate listings and exports in
// the committed dataset's row order.
func (d *Dataset) Configs() []proc.ConfiguredProcessor {
	present := make(map[string]proc.ConfiguredProcessor, len(d.cps))
	for _, cp := range d.cps {
		present[cp.String()] = cp
	}
	var out []proc.ConfiguredProcessor
	for _, cp := range proc.ConfigSpace() {
		if got, ok := present[cp.String()]; ok {
			out = append(out, got)
			delete(present, cp.String())
		}
	}
	var rest []proc.ConfiguredProcessor
	for _, cp := range present {
		rest = append(rest, cp)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].String() < rest[j].String() })
	return append(out, rest...)
}

// Measure is the dataset's harness.MeasureFunc: a pure lookup.
func (d *Dataset) Measure(b *workload.Benchmark, cp proc.ConfiguredProcessor) (*harness.Measurement, error) {
	m, ok := d.byCell[b.Name+"|"+cp.String()]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrMissingCell, b.Name, cp)
	}
	return m, nil
}

// MeasureBatch satisfies the experiments.Source interface so the
// dataset CSV streamers run unchanged over stored data. Lookups are
// cheap, so workers is ignored.
func (d *Dataset) MeasureBatch(ctx context.Context, jobs []harness.Job, workers int) ([]*harness.Measurement, error) {
	out := make([]*harness.Measurement, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := d.Measure(j.Bench, j.CP)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Reference rebuilds the Section 2.6 normalization table from stored
// reference-cell rows through the live harness's builder
// (harness.ReferenceFrom), over bit-identical inputs, so the table is
// bit-identical.
func (d *Dataset) Reference() (*harness.Reference, error) {
	return harness.ReferenceFrom(context.Background(), d, 0)
}

// Complete reports whether every benchmark of the given groups (nil =
// all four) has a stored row on cp.
func (d *Dataset) Complete(cp proc.ConfiguredProcessor, groups []workload.Group) bool {
	if groups == nil {
		groups = workload.Groups()
	}
	suffix := "|" + cp.String()
	for _, g := range groups {
		for _, b := range workload.ByGroup(g) {
			if _, ok := d.byCell[b.Name+suffix]; !ok {
				return false
			}
		}
	}
	return true
}

// Aggregate runs the paper's Section 2.6 aggregation
// (harness.AggregateConfig — the exact live code path) over every
// complete configuration in the dataset, in canonical order. It returns
// the aggregates plus the labels of configurations skipped as
// incomplete.
func (d *Dataset) Aggregate(groups []workload.Group) ([]*harness.ConfigResult, []string, error) {
	ref, err := d.Reference()
	if err != nil {
		return nil, nil, fmt.Errorf("store: normalization reference from stored rows: %w", err)
	}
	var out []*harness.ConfigResult
	var skipped []string
	for _, cp := range d.Configs() {
		if !d.Complete(cp, groups) {
			skipped = append(skipped, cp.String())
			continue
		}
		res, err := harness.AggregateConfig(cp, d.Measure, ref, groups)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, skipped, nil
}
