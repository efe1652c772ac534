// Package store is the daemon's persistent study store: an append-only
// log of sealed study segments that survives process restarts, so the
// longitudinal analyses the paper is built on (efficiency trends across
// processor generations) can run over the repo's own accumulated
// measurements instead of evaporating with each process.
//
// The design is deliberately minimal and stdlib-only:
//
//   - One append-only file, segments.log. Each completed study is
//     sealed as one self-contained segment: a columnar block of
//     measurement rows (column per determinism-tuple field plus the
//     measured outputs) framed by a length header and a CRC-32 footer.
//   - Appends write the whole segment in one Write call and fsync on
//     seal, so a sealed segment is durable and a crash can only tear
//     the segment being written.
//   - There is no memory-mapped or authoritative index file: Open
//     rebuilds the index by scanning segment footers from the front of
//     the log, truncates a torn tail (and only the tail — every sealed
//     segment before it is untouched), and then rewrites the advisory
//     index file for humans and tooling.
//
// Fidelity contract: floats are stored as raw IEEE-754 bits, so a row
// queried back is bit-identical to the measurement that produced it.
// Combined with the repo's determinism contract, stored aggregates and
// exported CSVs match live ones byte for byte.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/stats"
)

// LogName is the append-only segment log inside the store directory.
const LogName = "segments.log"

// IndexName is the advisory index file: one line per sealed segment,
// rebuilt on every open by scanning the log's segment footers. It is
// never read back — the log is the single source of truth — but it
// makes a store directory inspectable with cat.
const IndexName = "INDEX"

// CI is the persisted form of a confidence interval; identical field
// semantics to stats.CI.
type CI struct {
	Mean  float64
	Half  float64
	Level float64
	N     int
}

// Stats converts to the stats package's form.
func (c CI) Stats() stats.CI { return stats.CI{Mean: c.Mean, Half: c.Half, Level: c.Level, N: c.N} }

// FromStatsCI converts a stats confidence interval to the persisted form.
func FromStatsCI(ci stats.CI) CI { return CI{Mean: ci.Mean, Half: ci.Half, Level: ci.Level, N: ci.N} }

// Row is one measured cell as persisted: the determinism tuple's
// per-cell fields (benchmark, processor, configuration — seed and seal
// time live on the segment) plus the aggregated methodology outputs.
type Row struct {
	Benchmark string
	Processor string
	Cores     int
	SMTWays   int
	ClockGHz  float64
	Turbo     bool

	Runs     int
	Seconds  float64
	Watts    float64
	EnergyJ  float64
	TimeCI   CI
	PowerCI  CI
	Counters counters.Counters
}

// RowFromMeasurement flattens a harness measurement into its persisted
// form.
func RowFromMeasurement(m *harness.Measurement) Row {
	return Row{
		Benchmark: m.Bench.Name,
		Processor: m.CP.Proc.Name,
		Cores:     m.CP.Config.Cores,
		SMTWays:   m.CP.Config.SMTWays,
		ClockGHz:  m.CP.Config.ClockGHz,
		Turbo:     m.CP.Config.Turbo,
		Runs:      len(m.Runs),
		Seconds:   m.Seconds,
		Watts:     m.Watts,
		EnergyJ:   m.EnergyJ,
		TimeCI:    FromStatsCI(m.TimeCI),
		PowerCI:   FromStatsCI(m.PowerCI),
		Counters:  m.Counters,
	}
}

// Study is one sealed batch of measurement rows: a completed
// /v1/measure study, durably recorded as one segment.
type Study struct {
	// ID is content-derived (FNV-1a over seed, seal time, and row
	// identities), assigned at append time when zero.
	ID             uint64
	Seed           int64
	SealedUnixNano int64
	Rows           []Row
}

// Meta summarizes one sealed segment for listings and index entries.
type Meta struct {
	ID     uint64 `json:"id"`
	Seed   int64  `json:"seed"`
	Sealed int64  `json:"sealed_unix_nano"`
	Rows   int    `json:"rows"`
	Offset int64  `json:"offset"`
	Bytes  int64  `json:"bytes"`
}

// SealedTime returns the seal timestamp.
func (m Meta) SealedTime() time.Time { return time.Unix(0, m.Sealed) }

// Stats is the store's operational summary, surfaced on /metricsz and
// the monitor dashboard.
type Stats struct {
	Segments      int64 `json:"segments"`
	Rows          int64 `json:"rows"`
	Bytes         int64 `json:"bytes"`
	LastSealUnix  int64 `json:"last_seal_unix"`
	TruncatedTail int64 `json:"truncated_tail_bytes"`
}

// Store is an open study store. All methods are safe for concurrent
// use: appends are serialized under the mutex, reads go through ReadAt
// against sealed (immutable) regions of the log.
type Store struct {
	dir      string
	readOnly bool

	mu       sync.Mutex
	f        *os.File
	size     int64
	segs     []Meta
	rows     int64
	torn     int64 // bytes truncated (writer) or ignored (read-only) at open
	buf      []byte
	idxDirty bool // seals since the advisory index was last rewritten
	close    sync.Once
}

// Open opens (creating if needed) the store in dir for writing: it
// scans the segment log from the front, verifying each footer checksum,
// rebuilds the in-memory index, truncates a torn tail back to the last
// sealed segment, and rewrites the advisory index file.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenReadOnly opens an existing store for querying without modifying
// it: a torn tail is ignored rather than truncated, so query tooling
// can safely inspect the directory of a live daemon.
func OpenReadOnly(dir string) (*Store, error) { return open(dir, true) }

func open(dir string, readOnly bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	flags := os.O_RDWR | os.O_CREATE
	if readOnly {
		flags = os.O_RDONLY
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogName), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open log: %w", err)
	}
	s := &Store{dir: dir, readOnly: readOnly, f: f}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if !readOnly {
		s.writeIndexLocked()
	}
	return s, nil
}

// recover scans the log, building the index and locating the end of the
// last sealed segment. In write mode anything after it — a segment the
// previous process died inside, or garbage — is truncated away; sealed
// segments are never touched. In read-only mode the tail is left on
// disk and simply not indexed.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat log: %w", err)
	}
	raw := make([]byte, fi.Size())
	if _, err := s.f.ReadAt(raw, 0); err != nil && fi.Size() > 0 {
		return fmt.Errorf("store: read log: %w", err)
	}
	off := 0
	for off < len(raw) {
		st, n, err := DecodeSegment(raw[off:])
		if err != nil {
			// Torn or corrupt from here on: everything before off is
			// sealed and verified; everything after is the tail a crash
			// left behind.
			break
		}
		s.segs = append(s.segs, Meta{
			ID:     st.ID,
			Seed:   st.Seed,
			Sealed: st.SealedUnixNano,
			Rows:   len(st.Rows),
			Offset: int64(off),
			Bytes:  int64(n),
		})
		s.rows += int64(len(st.Rows))
		off += n
	}
	s.size = int64(off)
	s.torn = fi.Size() - int64(off)
	if s.torn > 0 && !s.readOnly {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync after truncate: %w", err)
		}
	}
	return nil
}

// writeIndexLocked rewrites the advisory index file from the in-memory
// index. Best-effort: the index is rebuilt from footers on every open,
// so a failed write costs nothing but inspectability.
func (s *Store) writeIndexLocked() {
	b := make([]byte, 0, 64*(len(s.segs)+1))
	b = append(b, "# powerperf study store index — advisory, rebuilt on open from segment footers\n"...)
	b = append(b, "# id seed sealed_unix_nano rows offset bytes\n"...)
	for _, m := range s.segs {
		b = strconv.AppendUint(b, m.ID, 16)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.Seed, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.Sealed, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(m.Rows), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.Offset, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, m.Bytes, 10)
		b = append(b, '\n')
	}
	_ = os.WriteFile(filepath.Join(s.dir, IndexName), b, 0o644)
}

// fnv1a over the study identity for content-derived IDs.
func studyID(st *Study) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(st.Seed))
	mix(uint64(st.SealedUnixNano))
	mix(uint64(len(st.Rows)))
	for i := range st.Rows {
		r := &st.Rows[i]
		for j := 0; j < len(r.Benchmark); j++ {
			h ^= uint64(r.Benchmark[j])
			h *= prime
		}
		for j := 0; j < len(r.Processor); j++ {
			h ^= uint64(r.Processor[j])
			h *= prime
		}
	}
	return h
}

// Append seals one study as a new segment: encode, single write, fsync.
// It returns the study's ID (assigned content-derived when zero). On a
// write error the log is truncated back to the last sealed segment so
// the store never exposes a half-written tail to its own process.
func (s *Store) Append(st *Study) (uint64, error) { return s.append(st, true) }

// AppendDeferSync seals one study without forcing it to stable storage;
// the caller promises a following Sync. The ingest writer uses it for
// group commit: under backlog, several seals share one fsync. A crash
// inside the unsynced window leaves at worst a shorter valid prefix —
// recovery keeps every segment up to the first invalid byte and
// truncates the rest, exactly as for a torn single-segment tail.
func (s *Store) AppendDeferSync(st *Study) (uint64, error) { return s.append(st, false) }

func (s *Store) append(st *Study, sync bool) (uint64, error) {
	if s.readOnly {
		return 0, errors.New("store: append to read-only store")
	}
	if st.SealedUnixNano == 0 {
		st.SealedUnixNano = time.Now().UnixNano()
	}
	if st.ID == 0 {
		st.ID = studyID(st)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, errors.New("store: closed")
	}
	buf, err := encodeSegment(s.buf[:0], st)
	if err != nil {
		return 0, err
	}
	s.buf = buf[:0] // recycle the encode buffer across seals
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		_ = s.f.Truncate(s.size)
		return 0, fmt.Errorf("store: append segment: %w", err)
	}
	if sync {
		if err := s.f.Sync(); err != nil {
			_ = s.f.Truncate(s.size)
			return 0, fmt.Errorf("store: fsync segment: %w", err)
		}
	}
	s.segs = append(s.segs, Meta{
		ID:     st.ID,
		Seed:   st.Seed,
		Sealed: st.SealedUnixNano,
		Rows:   len(st.Rows),
		Offset: s.size,
		Bytes:  int64(len(buf)),
	})
	s.size += int64(len(buf))
	s.rows += int64(len(st.Rows))
	// The advisory index is deferred to Sync/Close: rewriting a file
	// per seal is measurable on the serving path's ingest writer, and
	// the log is the source of truth anyway.
	s.idxDirty = true
	return st.ID, nil
}

// Studies lists the sealed segments in log order.
func (s *Store) Studies() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Meta(nil), s.segs...)
}

// Stats snapshots the store's operational counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:      int64(len(s.segs)),
		Rows:          s.rows,
		Bytes:         s.size,
		TruncatedTail: s.torn,
	}
	if n := len(s.segs); n > 0 {
		st.LastSealUnix = s.segs[n-1].Sealed / int64(time.Second)
	}
	return st
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Load decodes one sealed study by its index entry.
func (s *Store) Load(m Meta) (*Study, error) {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	if f == nil {
		return nil, errors.New("store: closed")
	}
	raw := make([]byte, m.Bytes)
	if _, err := f.ReadAt(raw, m.Offset); err != nil {
		return nil, fmt.Errorf("store: read segment at %d: %w", m.Offset, err)
	}
	st, _, err := DecodeSegment(raw)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Scan decodes every sealed study in log order, calling fn for each.
// Returning an error from fn stops the scan and propagates it.
func (s *Store) Scan(fn func(*Study) error) error {
	for _, m := range s.Studies() {
		st, err := s.Load(m)
		if err != nil {
			return err
		}
		if err := fn(st); err != nil {
			return err
		}
	}
	return nil
}

// Sync flushes the log to stable storage (appends already fsync per
// seal; Sync exists for shutdown belt-and-braces) and rewrites the
// advisory index if seals landed since the last rewrite.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil || s.readOnly {
		return nil
	}
	if s.idxDirty {
		s.writeIndexLocked()
		s.idxDirty = false
	}
	return s.f.Sync()
}

// Close syncs and closes the log. Idempotent.
func (s *Store) Close() error {
	var err error
	s.close.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.f == nil {
			return
		}
		if !s.readOnly {
			if s.idxDirty {
				s.writeIndexLocked()
				s.idxDirty = false
			}
			err = s.f.Sync()
		}
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	})
	return err
}
