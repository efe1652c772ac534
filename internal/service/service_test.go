package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sharedSrv amortizes one daemon (and its measurement cache) across the
// package's endpoint tests, the way a real powerperfd amortizes across
// requests. Tests that need fresh counters build their own Server.
var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedHTTP *httptest.Server
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv = NewServer(Options{Seed: 42})
		sharedHTTP = httptest.NewServer(sharedSrv.Handler())
	})
	return sharedSrv, sharedHTTP
}

func postMeasure(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// metricszSamples scrapes /metricsz and indexes every sample by its
// exposition key.
func metricszSamples(t *testing.T, url string) map[string]telemetry.MetricPoint {
	t.Helper()
	code, b := get(t, url+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d %s", code, b)
	}
	fams, err := telemetry.ParsePrometheus(string(b))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]telemetry.MetricPoint{}
	for _, f := range fams {
		for _, p := range f.Samples {
			out[p.Key()] = p
		}
	}
	return out
}

const twoCellBody = `{"cells":[
	{"benchmark":"mcf","processor":"i7 (45)"},
	{"benchmark":"jess","processor":"i5 (32)","config":{"cores":2,"smt":2,"clock_ghz":1.2,"turbo":false}}
]}`

// TestMeasureRepeatServedFromCache pins the acceptance criterion: a
// repeated POST /v1/measure for the same cells is served from cache (no
// recomputation, observed via the Stats miss counter) and is
// byte-identical to the first response.
func TestMeasureRepeatServedFromCache(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	code, first := postMeasure(t, ts.URL, twoCellBody)
	if code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, first)
	}
	st1 := srv.Stats()
	if st1.Cache.Misses != 2 || st1.Cache.Hits != 0 {
		t.Fatalf("after first POST: %+v", st1.Cache)
	}

	code, second := postMeasure(t, ts.URL, twoCellBody)
	if code != http.StatusOK {
		t.Fatalf("second POST: %d %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat response differs:\n%s\nvs\n%s", first, second)
	}
	st2 := srv.Stats()
	if st2.Cache.Misses != 2 {
		t.Fatalf("repeat recomputed: misses %d -> %d", st1.Cache.Misses, st2.Cache.Misses)
	}
	if st2.Cache.Hits != 2 {
		t.Fatalf("repeat not served from cache: hits = %d, want 2", st2.Cache.Hits)
	}
	if st2.HitRate <= 0 {
		t.Fatalf("hit rate %v, want > 0", st2.HitRate)
	}
}

// TestTwoServersBitIdentical is the service half of the determinism
// property: two independent daemons (separate rigs, separate caches)
// filling their caches for the same cells serve byte-identical bodies.
func TestTwoServersBitIdentical(t *testing.T) {
	var bodies [2][]byte
	for i := range bodies {
		srv := NewServer(Options{Seed: 42, Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		code, b := postMeasure(t, ts.URL, twoCellBody)
		if code != http.StatusOK {
			t.Fatalf("server %d: %d %s", i, code, b)
		}
		bodies[i] = b
		ts.Close()
		srv.Drain()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("independent cache fills differ:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestMeasureMatchesHarness cross-checks the service path against a
// direct harness measurement at the same seed: the wire numbers are the
// measurement's numbers, bit-identical through JSON round-trip.
func TestMeasureMatchesHarness(t *testing.T) {
	_, ts := testServer(t)
	body := `{"seed":7,"cells":[{"benchmark":"vips","processor":"Atom (45)"}]}`
	code, b := postMeasure(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("%d %s", code, b)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 7 || len(resp.Cells) != 1 {
		t.Fatalf("response %+v", resp)
	}

	h, err := harness.New(7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.ByName("Atom (45)")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.ByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(bench, proc.ConfiguredProcessor{Proc: p, Config: p.Stock()})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Cells[0]
	if got.Seconds != m.Seconds || got.Watts != m.Watts || got.EnergyJ != m.EnergyJ {
		t.Fatalf("service %v/%v/%v vs harness %v/%v/%v",
			got.Seconds, got.Watts, got.EnergyJ, m.Seconds, m.Watts, m.EnergyJ)
	}
	if got.Runs != len(m.Runs) || got.TimeCIRel != m.TimeCI.Relative() || got.PowerCIRel != m.PowerCI.Relative() {
		t.Fatalf("wire metadata mismatch: %+v", got)
	}
}

// TestConcurrentLoadOverlappingKeys is the race-lane acceptance test: 32
// goroutines hammer one daemon with overlapping keys; every identical
// request must observe a byte-identical body, the singleflight path must
// coalesce concurrent fills, and Stats must report a positive hit rate
// afterwards.
func TestConcurrentLoadOverlappingKeys(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	// Four distinct bodies over a pool of cells; 32 goroutines x 3
	// rounds means every body is requested ~24 times concurrently.
	cells := []string{
		`{"benchmark":"jess","processor":"i5 (32)"}`,
		`{"benchmark":"db","processor":"AtomD (45)"}`,
		`{"benchmark":"vips","processor":"Core2Q (65)"}`,
		`{"benchmark":"pmd","processor":"Core2D (45)"}`,
		`{"benchmark":"lusearch","processor":"i7 (45)"}`,
	}
	bodies := make([]string, 4)
	for i := range bodies {
		// Overlapping subsets: body i holds cells i and i+1.
		bodies[i] = fmt.Sprintf(`{"cells":[%s,%s]}`, cells[i], cells[i+1])
	}

	const goroutines = 32
	const rounds = 3
	got := make([][rounds][]byte, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
					strings.NewReader(bodies[(g+r)%len(bodies)]))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d round %d: %d %s", g, r, resp.StatusCode, b)
					return
				}
				got[g][r] = b
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Same body index -> byte-identical response, across all goroutines
	// and rounds.
	want := make(map[int][]byte)
	for g := 0; g < goroutines; g++ {
		for r := 0; r < rounds; r++ {
			idx := (g + r) % len(bodies)
			if want[idx] == nil {
				want[idx] = got[g][r]
				continue
			}
			if !bytes.Equal(got[g][r], want[idx]) {
				t.Fatalf("goroutine %d round %d: body %d diverged", g, r, idx)
			}
		}
	}

	st := srv.Stats()
	if st.HitRate <= 0 {
		t.Fatalf("hit rate %v after concurrent load, want > 0", st.HitRate)
	}
	// 5 distinct cells total; everything else must have been coalesced
	// or served from cache.
	if st.Cache.Misses != 5 {
		t.Fatalf("%d fills for 5 distinct cells", st.Cache.Misses)
	}
}

func TestMeasureValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"cells":`},
		{"unknown field", `{"cellz":[]}`},
		{"no cells", `{"cells":[]}`},
		{"unknown benchmark", `{"cells":[{"benchmark":"nope","processor":"i7 (45)"}]}`},
		{"unknown processor", `{"cells":[{"benchmark":"mcf","processor":"i9 (7)"}]}`},
		{"invalid config", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)","config":{"cores":9,"smt":1,"clock_ghz":2.67,"turbo":false}}]}`},
		{"turbo below max clock", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)","config":{"cores":4,"smt":2,"clock_ghz":1.6,"turbo":true}}]}`},
		{"trailing garbage", `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]} {"again":true}`},
	}
	for _, tc := range cases {
		code, b := postMeasure(t, ts.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, b)
		}
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not JSON", tc.name, b)
		}
	}

	// Cell-count bound.
	var sb strings.Builder
	sb.WriteString(`{"cells":[`)
	for i := 0; i <= MaxCells; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"benchmark":"mcf","processor":"i7 (45)"}`)
	}
	sb.WriteString(`]}`)
	if code, _ := postMeasure(t, ts.URL, sb.String()); code != http.StatusBadRequest {
		t.Errorf("oversized request: status %d, want 400", code)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := testServer(t)

	code, b := get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("index: %d %s", code, b)
	}
	var idx struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Experiments) != len(experimentRegistry) {
		t.Fatalf("index lists %d ids, registry has %d", len(idx.Experiments), len(experimentRegistry))
	}

	if code, b := get(t, ts.URL+"/v1/experiments/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d %s", code, b)
	}

	// table3 is static specification data; table2 measures through the
	// shared context. Both must be valid JSON and stable across fetches.
	for _, id := range []string{"table3", "table2"} {
		code, first := get(t, ts.URL+"/v1/experiments/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, code, first)
		}
		var doc struct {
			ID     string          `json:"id"`
			Seed   int64           `json:"seed"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(first, &doc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if doc.ID != id || doc.Seed != 42 || len(doc.Result) == 0 {
			t.Fatalf("%s: doc %+v", id, doc)
		}
		_, second := get(t, ts.URL+"/v1/experiments/"+id)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: repeated fetch differs", id)
		}
	}
}

// TestDatasetEndpointMatchesCommittedDataset pins the acceptance
// criterion: the dataset regenerated through the service path is
// byte-identical to the committed seed-42 companion files.
func TestDatasetEndpointMatchesCommittedDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full 45x61 grid in -short mode")
	}
	_, ts := testServer(t)
	for table, file := range map[string]string{
		"measurements": "measurements.csv",
		"aggregates":   "aggregates.csv",
	} {
		code, got := get(t, ts.URL+"/v1/dataset?table="+table)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", table, code)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: service bytes differ from committed dataset/%s (%d vs %d bytes)",
				table, file, len(got), len(want))
		}
	}
	if code, _ := get(t, ts.URL+"/v1/dataset?table=nope"); code != http.StatusBadRequest {
		t.Fatalf("unknown table accepted: %d", code)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv := NewServer(Options{Seed: 42, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"jess","processor":"i5 (32)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("measure before drain: %d %s", code, b)
	}

	srv.Drain()
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	if code, _ = postMeasure(t, ts.URL, `{"cells":[{"benchmark":"jess","processor":"i5 (32)"}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("measure while draining: %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/experiments/table3"); code != http.StatusServiceUnavailable {
		t.Fatalf("experiment while draining: %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/v1/dataset"); code != http.StatusServiceUnavailable {
		t.Fatalf("dataset while draining: %d, want 503", code)
	}
	// metricsz stays observable for post-mortem.
	if p := metricszSamples(t, ts.URL)["powerperfd_draining"]; p.Value != 1 {
		t.Fatalf("metricsz reports draining %v, want 1", p.Value)
	}
}

// TestHarnessCacheEviction exercises the per-seed harness LRU: more
// distinct seeds than capacity must still serve correct results.
func TestHarnessCacheEviction(t *testing.T) {
	hc := newHarnessCache(2)
	for _, seed := range []int64{1, 2, 3, 1, 2} {
		h, err := hc.get(seed)
		if err != nil {
			t.Fatal(err)
		}
		if h == nil {
			t.Fatalf("seed %d: nil harness", seed)
		}
	}
	if n := hc.lru.Len(); n != 2 {
		t.Fatalf("%d harnesses resident, capacity 2", n)
	}
}

// TestMeasureFullDetail verifies the reconstruction-grade response
// shape: detail=full carries every run sample, the mean counters, and
// both confidence intervals, while the default shape stays unchanged
// (no "full" key on the wire).
func TestMeasureFullDetail(t *testing.T) {
	_, ts := testServer(t)

	code, body := postMeasure(t, ts.URL, `{"detail":"full","cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("full-detail POST: %d %s", code, body)
	}
	var resp MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	cell := resp.Cells[0]
	if cell.Full == nil {
		t.Fatal("detail=full response lacks the full block")
	}
	if len(cell.Full.RunSamples) != cell.Runs || cell.Runs == 0 {
		t.Fatalf("full detail has %d run samples, summary says %d runs", len(cell.Full.RunSamples), cell.Runs)
	}
	if cell.Full.TimeCI.N != cell.Runs || cell.Full.TimeCI.Level != 0.95 {
		t.Fatalf("time CI %+v inconsistent with %d runs", cell.Full.TimeCI, cell.Runs)
	}
	if cell.Full.Counters.Instructions <= 0 {
		t.Fatalf("full detail counters empty: %+v", cell.Full.Counters)
	}

	code, body = postMeasure(t, ts.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`)
	if code != http.StatusOK {
		t.Fatalf("summary POST: %d %s", code, body)
	}
	if bytes.Contains(body, []byte(`"full"`)) {
		t.Fatalf("summary response leaks the full block: %s", body)
	}

	if code, body := postMeasure(t, ts.URL, `{"detail":"nope","cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusBadRequest {
		t.Fatalf("bad detail: %d %s, want 400", code, body)
	}
}

// TestMetricsz verifies the Prometheus exposition endpoint serves the
// cache, shard, queue, and request families with parseable lines.
func TestMetricsz(t *testing.T) {
	srv, ts := testServer(t)
	// Ensure at least one measured cell so counters are nonzero.
	if code, b := postMeasure(t, ts.URL, `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`); code != http.StatusOK {
		t.Fatalf("measure: %d %s", code, b)
	}

	code, body := get(t, ts.URL+"/metricsz")
	if code != http.StatusOK {
		t.Fatalf("metricsz: %d", code)
	}
	text := string(body)
	for _, family := range []string{
		"powerperfd_uptime_seconds",
		"powerperfd_cache_hits_total",
		"powerperfd_cache_misses_total",
		"powerperfd_cache_coalesced_total",
		"powerperfd_cache_shard_entries{shard=\"0\"}",
		"powerperfd_cache_shard_entries{shard=\"15\"}",
		"powerperfd_queue_depth",
		"powerperfd_requests_total{endpoint=\"measure\"}",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metricsz missing %s", family)
		}
	}
	// Spot-check a value: the shard entries must sum to the Stats
	// entry count.
	st := srv.Stats()
	sum := 0
	for _, n := range st.Cache.Shards {
		sum += n
	}
	if len(st.Cache.Shards) != 16 || sum != st.Cache.Entries {
		t.Errorf("Stats shard occupancy %v (sum %d) inconsistent with %d entries",
			st.Cache.Shards, sum, st.Cache.Entries)
	}
}

// TestMetricszCarriesEveryStatsField pins /metricsz as the only wire
// rendering of Stats(): on a store-backed daemon with SLO tracking on,
// every numeric field reads back exactly from the parsed page — the
// seed too, above 2^53 where a float gauge would round it — and a
// storeless daemon renders no store family at all.
func TestMetricszCarriesEveryStatsField(t *testing.T) {
	const seed = 1<<62 + 1
	srv, ts, _ := storeServer(t, Options{Seed: seed, Workers: 2, SLO: DefaultSLOConfig()})
	cell := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`
	for i := 0; i < 2; i++ {
		if code, b := postMeasure(t, ts.URL, cell); code != http.StatusOK {
			t.Fatalf("measure: %d %s", code, b)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/measure?stream=1", "application/json", strings.NewReader(cell))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, path := range []string{"/v1/experiments", "/v1/dataset?table=bogus", "/v1/studies"} {
		get(t, ts.URL+path)
	}
	waitRecorded(t, srv, 3)

	st := srv.Stats()
	got := metricszSamples(t, ts.URL)
	var info *telemetry.MetricPoint
	for k, p := range got {
		if strings.HasPrefix(k, "powerperfd_info{") {
			info = &p
		}
	}
	if info == nil {
		t.Fatal("metricsz has no powerperfd_info sample")
	}
	if v, _ := info.Label("seed"); v != strconv.FormatInt(st.Seed, 10) || st.Seed != seed {
		t.Errorf("powerperfd_info seed=%q, Stats seed %d, want %d", v, st.Seed, int64(seed))
	}
	var build *telemetry.MetricPoint
	for k, p := range got {
		if strings.HasPrefix(k, "powerperf_build_info{") {
			build = &p
		}
	}
	if build == nil {
		t.Fatal("metricsz has no powerperf_build_info sample")
	}
	for key, want := range map[string]string{
		"version": st.Build.Version, "commit": st.Build.Commit,
		"go": st.Build.GoVersion, "modified": strconv.FormatBool(st.Build.Modified),
	} {
		if v, _ := build.Label(key); v != want {
			t.Errorf("powerperf_build_info %s=%q, want %q", key, v, want)
		}
	}
	if up := got["powerperfd_uptime_seconds"].Value; up < st.UptimeS || up > st.UptimeS+60 {
		t.Errorf("uptime %v, Stats %v", up, st.UptimeS)
	}

	ss := st.Store
	if ss == nil || ss.Recorded < 3 || st.Requests.MeasureStreams != 1 || st.Requests.Studies != 1 {
		t.Fatalf("workload did not reach every counter: %+v store %+v", st.Requests, ss)
	}
	want := map[string]int64{
		"powerperfd_draining":                               0,
		"powerperfd_cache_hits_total":                       st.Cache.Hits,
		"powerperfd_cache_misses_total":                     st.Cache.Misses,
		"powerperfd_cache_coalesced_total":                  st.Cache.Coalesced,
		"powerperfd_cache_evictions_total":                  st.Cache.Evictions,
		"powerperfd_cache_entries":                          int64(st.Cache.Entries),
		"powerperfd_cache_capacity":                         int64(st.Cache.Capacity),
		"powerperfd_queue_depth":                            int64(st.Queue.Depth),
		`powerperfd_queue_lane_depth{lane="interactive"}`:   int64(st.Queue.InteractiveDepth),
		`powerperfd_queue_lane_depth{lane="bulk"}`:          int64(st.Queue.BulkDepth),
		"powerperfd_queue_capacity":                         int64(st.Queue.Capacity),
		"powerperfd_inflight_workers":                       st.Queue.Inflight,
		"powerperfd_workers":                                int64(st.Queue.Workers),
		`powerperfd_requests_total{endpoint="measure"}`:     st.Requests.Measure,
		`powerperfd_requests_total{endpoint="experiments"}`: st.Requests.Experiments,
		`powerperfd_requests_total{endpoint="dataset"}`:     st.Requests.Dataset,
		`powerperfd_requests_total{endpoint="studies"}`:     st.Requests.Studies,
		"powerperfd_measure_streams_total":                  st.Requests.MeasureStreams,
		"powerperfd_store_segments":                         ss.Segments,
		"powerperfd_store_rows":                             ss.Rows,
		"powerperfd_store_bytes":                            ss.Bytes,
		"powerperfd_store_last_seal_unix":                   ss.LastSealUnix,
		"powerperfd_store_recorded_studies_total":           ss.Recorded,
		"powerperfd_store_recorded_rows_total":              ss.RecordedRows,
		"powerperfd_store_dropped_studies_total":            ss.Dropped,
		"powerperfd_store_write_errors_total":               ss.WriteErrors,
	}
	for key, w := range want {
		p, ok := got[key]
		if !ok {
			t.Errorf("metricsz missing %s", key)
		} else if p.Value != float64(w) {
			t.Errorf("%s = %v, Stats says %d", key, p.Value, w)
		}
	}
	if _, ok := got[`slo_error_budget_remaining{objective="availability"}`]; !ok {
		t.Error("SLO gauges missing from a daemon with SLO tracking on")
	}

	_, plain := testServer(t)
	for key := range metricszSamples(t, plain.URL) {
		if strings.HasPrefix(key, "powerperfd_store_") {
			t.Errorf("storeless daemon renders %s", key)
		}
	}
}

// TestHooksInjectFaults verifies the test seam: a hook error surfaces
// as a 500 and is not cached, so the next request recomputes cleanly.
func TestHooksInjectFaults(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	srv := NewServer(Options{Seed: 42, Workers: 2, Hooks: &Hooks{
		BeforeMeasure: func(seed int64, bench, processor string) error {
			if fail.Load() {
				return fmt.Errorf("injected fault for %s on %s", bench, processor)
			}
			return nil
		},
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	body := `{"cells":[{"benchmark":"mcf","processor":"i7 (45)"}]}`
	if code, b := postMeasure(t, ts.URL, body); code != http.StatusInternalServerError {
		t.Fatalf("faulted measure: %d %s, want 500", code, b)
	}
	fail.Store(false)
	if code, b := postMeasure(t, ts.URL, body); code != http.StatusOK {
		t.Fatalf("post-fault measure: %d %s, want 200 (errors must not be cached)", code, b)
	}
}
