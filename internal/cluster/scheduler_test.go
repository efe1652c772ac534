package cluster

import (
	"bytes"
	"context"
	"crypto/md5"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaoshttp"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
)

// chaosBackend is a powerperfd behind a fault-injecting proxy; the
// scheduler talks only to the proxy.
func chaosBackend(t *testing.T, sopts service.Options, copts chaoshttp.Options) (*chaoshttp.Proxy, *httptest.Server) {
	t.Helper()
	srv := service.NewServer(sopts)
	backend := httptest.NewServer(srv.Handler())
	t.Cleanup(backend.Close)
	p := chaoshttp.New(backend.URL, copts)
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

// TestSchedulerMatchesLocalHarness is the scheduler's contract test: a
// single-backend work-stealing run returns measurements deeply equal
// to a local harness at the same seed.
func TestSchedulerMatchesLocalHarness(t *testing.T) {
	srv := service.NewServer(service.Options{Seed: 42})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	s, err := NewScheduler([]string{ts.URL}, SchedulerOptions{Seed: seedPtr(42), LeaseCells: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stockJobs(t, 2)
	remote, err := s.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	local, err := h.MeasureBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if !reflect.DeepEqual(remote[i], local[i]) {
			t.Fatalf("job %d (%s on %s): scheduled measurement differs from local",
				i, jobs[i].Bench.Name, jobs[i].CP)
		}
	}
	st := s.Stats()
	if st.CellsMeasured != int64(len(jobs)) {
		t.Fatalf("cells_measured = %d, want %d", st.CellsMeasured, len(jobs))
	}
	if st.LeasesIssued < int64(len(jobs)/5) {
		t.Fatalf("leases_issued = %d, want >= %d", st.LeasesIssued, len(jobs)/5)
	}
}

// TestSchedulerStudyByteIdenticalUnderChaos is the acceptance test:
// three backends — one killed mid-study, one a 10x straggler (every
// response chunk delayed by its chaos proxy), one randomly truncating
// streams — and the work-stealing study still produces CSVs byte-
// identical to the committed seed-42 dataset. Completed cells are
// never re-run: a re-dispatched or stolen lease requests only the
// cells not yet delivered. The death trips the victim's breaker and is
// attributed to it, and the resilience counters are scrapeable.
func TestSchedulerStudyByteIdenticalUnderChaos(t *testing.T) {
	var victim *chaoshttp.Proxy
	var victimFront *httptest.Server
	var victimCells atomic.Int64
	killAt := int64(150)
	hooks := &service.Hooks{BeforeMeasure: func(int64, string, string) error {
		if victimCells.Add(1) == killAt {
			victim.Kill()
			victimFront.CloseClientConnections()
		}
		return nil
	}}

	p0, f0 := chaosBackend(t, service.Options{Seed: 42, Hooks: hooks}, chaoshttp.Options{Seed: 1})
	victim, victimFront = p0, f0
	// The straggler: compute runs at full speed but every response chunk
	// crawls out — the shape of a backend with a saturated uplink.
	_, f1 := chaosBackend(t, service.Options{Seed: 42}, chaoshttp.Options{Seed: 2, ChunkDelay: 2 * time.Millisecond})
	// The flaky one: ~5% of responses are severed mid-chunk.
	p2, f2 := chaosBackend(t, service.Options{Seed: 42}, chaoshttp.Options{Seed: 3, TruncateProb: 0.05})

	s, err := NewScheduler([]string{f0.URL, f1.URL, f2.URL}, SchedulerOptions{
		Seed:             seedPtr(42),
		LeaseCells:       32,
		LeaseExpiry:      150 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxLeaseFailures: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	ref, err := s.Reference(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf, abuf bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, s, ref, nil, &mbuf, 0); err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamAggregatesCSVFrom(ctx, s, ref, nil, &abuf, 0); err != nil {
		t.Fatal(err)
	}

	if !victim.Dead() {
		t.Fatalf("victim backend was never killed (computed %d cells, kill at %d)", victimCells.Load(), killAt)
	}

	for file, got := range map[string][]byte{
		"measurements.csv": mbuf.Bytes(),
		"aggregates.csv":   abuf.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scheduled bytes differ from committed dataset/%s (%d vs %d bytes)",
				file, file, len(got), len(want))
		}
	}

	st := s.Stats()
	if st.DispatchFailures == 0 {
		t.Errorf("expected dispatch failures after the mid-study kill, got 0; stats %+v", st)
	}
	if st.Redispatches+st.Steals == 0 {
		t.Errorf("expected the killed backend's leases to be re-dispatched or stolen; stats %+v", st)
	}
	if st.BreakerOpens == 0 {
		t.Errorf("expected the dead backend's breaker to open, got 0 opens; stats %+v", st)
	}
	// The death is charged to the victim: its failed lease dispatches
	// are what the survivors re-ran.
	for _, be := range st.Backends {
		if be.URL == f0.URL && be.LeaseFailures == 0 {
			t.Errorf("killed backend %s shows no lease failures; stats %+v", be.URL, st)
		}
	}
	if pst := p2.Stats(); pst.Truncated == 0 {
		t.Logf("note: the truncating proxy never fired (%+v)", pst)
	} else if st.StreamTruncations == 0 {
		t.Errorf("proxy truncated %d streams but the scheduler counted 0", p2.Stats().Truncated)
	}
	// No wholesale re-running: duplicated work is bounded by the
	// re-dispatched remainders and concurrent steals, nowhere near a
	// second pass over the grid.
	if st.CellsRequested >= 2*st.CellsMeasured {
		t.Errorf("cells_requested = %d vs %d measured: completed cells are being re-run",
			st.CellsRequested, st.CellsMeasured)
	}

	var metrics bytes.Buffer
	s.WriteMetrics(&metrics)
	for _, want := range []string{
		"powerperf_sched_leases_issued_total",
		"powerperf_sched_steals_total",
		"powerperf_sched_cells_discarded_total",
		"powerperf_sched_stream_truncations_total",
		"powerperf_sched_breaker_opens_total",
	} {
		if !bytes.Contains(metrics.Bytes(), []byte(want)) {
			t.Errorf("scheduler metrics missing %s", want)
		}
	}
}

// TestSchedulerStudyCSVProperty is the generative determinism suite:
// across randomized backend counts, lease sizes, puller counts, and
// seeded chaos schedules (drops, truncations, chunk delays, mid-run
// kills), the scheduler's CSVs must be md5-identical to a local serial
// run at the same seed. The scenario battery is itself seeded, so a
// failure replays exactly.
func TestSchedulerStudyCSVProperty(t *testing.T) {
	scenarios := 50
	if testing.Short() {
		scenarios = 12
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	seeds := []int64{0, 1, 2, 42}

	// One real backend fleet serves every scenario: the measure seed
	// travels in each request, and the shared cache keeps repeated
	// scenarios cheap, exactly as a long-lived fleet would.
	var backendURLs []string
	for i := 0; i < 4; i++ {
		srv := service.NewServer(service.Options{Seed: 42})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		backendURLs = append(backendURLs, ts.URL)
	}

	type key struct {
		seed int64
		cfgs int
	}
	localM := map[key]string{}
	localA := map[key]string{}
	refs := map[int64]*harness.Reference{}
	local := func(seed int64, cfgs int) (string, string, *harness.Reference) {
		k := key{seed, cfgs}
		if _, ok := localM[k]; !ok {
			h, err := harness.New(seed)
			if err != nil {
				t.Fatal(err)
			}
			if refs[seed] == nil {
				ref, err := h.Reference()
				if err != nil {
					t.Fatal(err)
				}
				refs[seed] = ref
			}
			cps := proc.StockConfigs()[:cfgs]
			var mbuf, abuf bytes.Buffer
			ctx := context.Background()
			if err := experiments.StreamMeasurementsCSVFrom(ctx, h, refs[seed], cps, &mbuf, 0); err != nil {
				t.Fatal(err)
			}
			if err := experiments.StreamAggregatesCSVFrom(ctx, h, refs[seed], cps, &abuf, 0); err != nil {
				t.Fatal(err)
			}
			localM[k] = mbuf.String()
			localA[k] = abuf.String()
		}
		return localM[k], localA[k], refs[seed]
	}

	for i := 0; i < scenarios; i++ {
		seed := seeds[rng.Intn(len(seeds))]
		cfgs := 1 + rng.Intn(2)
		nBackends := 1 + rng.Intn(len(backendURLs))
		leaseCells := 1 + rng.Intn(9)
		pullers := 1 + rng.Intn(3)

		// Per-backend chaos, freshly seeded per scenario. A kill is only
		// scheduled when survivors remain.
		var urls []string
		var proxies []*chaoshttp.Proxy
		var fronts []*httptest.Server
		killIdx := -1
		if nBackends > 1 && rng.Intn(4) == 0 {
			killIdx = rng.Intn(nBackends)
		}
		for b := 0; b < nBackends; b++ {
			copts := chaoshttp.Options{
				Seed:         rng.Int63(),
				DropProb:     rng.Float64() * 0.15,
				TruncateProb: rng.Float64() * 0.25,
				ChunkDelay:   time.Duration(rng.Intn(2)) * time.Millisecond,
			}
			if b == killIdx {
				copts.KillAfter = int64(1 + rng.Intn(8))
			}
			p := chaoshttp.New(backendURLs[b], copts)
			front := httptest.NewServer(p)
			proxies = append(proxies, p)
			fronts = append(fronts, front)
			urls = append(urls, front.URL)
		}

		name := fmt.Sprintf("scenario %d: seed=%d cfgs=%d backends=%d lease=%d pullers=%d kill=%d",
			i, seed, cfgs, nBackends, leaseCells, pullers, killIdx)
		func() {
			defer func() {
				for _, f := range fronts {
					f.Close()
				}
			}()
			s, err := NewScheduler(urls, SchedulerOptions{
				Seed:              &seed,
				LeaseCells:        leaseCells,
				LeaseExpiry:       50 * time.Millisecond,
				PullersPerBackend: pullers,
				BreakerThreshold:  3,
				BreakerCooldown:   60 * time.Millisecond,
				BackoffBase:       time.Millisecond,
				BackoffMax:        15 * time.Millisecond,
				MaxLeaseFailures:  1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantM, wantA, ref := local(seed, cfgs)
			cps := proc.StockConfigs()[:cfgs]
			var mbuf, abuf bytes.Buffer
			ctx := context.Background()
			if err := experiments.StreamMeasurementsCSVFrom(ctx, s, ref, cps, &mbuf, 0); err != nil {
				t.Fatalf("%s: measurements: %v", name, err)
			}
			if err := experiments.StreamAggregatesCSVFrom(ctx, s, ref, cps, &abuf, 0); err != nil {
				t.Fatalf("%s: aggregates: %v", name, err)
			}
			if md5.Sum(mbuf.Bytes()) != md5.Sum([]byte(wantM)) {
				t.Errorf("%s: measurements.csv md5 differs from local serial run", name)
			}
			if md5.Sum(abuf.Bytes()) != md5.Sum([]byte(wantA)) {
				t.Errorf("%s: aggregates.csv md5 differs from local serial run", name)
			}
			// A kill only fires if the victim saw enough requests; work
			// stealing legitimately lets fast peers absorb everything.
			if killIdx >= 0 && !proxies[killIdx].Dead() {
				t.Logf("%s: victim saw %d requests, below its kill threshold", name, proxies[killIdx].Stats().Requests)
			}
		}()
		if t.Failed() {
			return
		}
	}
}

// passGate holds every measure request until each of want backends has
// received one in the current pass, so no backend can finish its home
// before every other backend has claimed its own.
type passGate struct {
	mu      sync.Mutex
	want    int
	arrived int
	open    chan struct{}
}

func (g *passGate) reset() {
	g.mu.Lock()
	g.arrived, g.open = 0, make(chan struct{})
	g.mu.Unlock()
}

func (g *passGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/measure" {
			g.mu.Lock()
			g.arrived++
			if g.arrived == g.want {
				close(g.open)
			}
			open := g.open
			g.mu.Unlock()
			select {
			case <-open:
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestSchedulerRepeatPassHitsCache pins cache affinity: every cell goes
// to its rendezvous home, so a batch that repeats cells finds them in
// the cache of the backend that measured them. Each home is one lease
// served by one puller, and the gate makes every backend claim its
// home before any finishes, so no lease can move between backends and
// the expected cache counters are exact.
func TestSchedulerRepeatPassHitsCache(t *testing.T) {
	gate := &passGate{want: 2}
	gate.reset()
	var srvs []*service.Server
	var urls []string
	for i := 0; i < 2; i++ {
		srv := service.NewServer(service.Options{Seed: 42})
		ts := httptest.NewServer(gate.wrap(srv.Handler()))
		t.Cleanup(ts.Close)
		srvs = append(srvs, srv)
		urls = append(urls, ts.URL)
	}
	cps := proc.StockConfigs()[:6]
	grid := harness.GridJobs(cps, nil)
	s, err := NewScheduler(urls, SchedulerOptions{
		Seed:              seedPtr(42),
		LeaseCells:        len(grid),
		LeaseExpiry:       time.Minute,
		PullersPerBackend: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	misses := func() (n int64) {
		for _, srv := range srvs {
			n += srv.Stats().Cache.Misses
		}
		return n
	}
	hits := func() (n int64) {
		for _, srv := range srvs {
			n += srv.Stats().Cache.Hits
		}
		return n
	}

	ref, err := s.Reference(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRef, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, wantRef) {
		t.Fatal("scheduled reference differs from local")
	}
	refCells, err := harness.ReferenceCells()
	if err != nil {
		t.Fatal(err)
	}
	isRef := map[string]bool{}
	for _, j := range harness.GridJobs(refCells, nil) {
		isRef[routeKey(42, j)] = true
	}
	overlap := 0
	for _, j := range grid {
		if isRef[routeKey(42, j)] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("grid shares no cells with the reference set")
	}

	want, err := h.MeasureBatch(ctx, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		gate.reset()
		m0, h0 := misses(), hits()
		got, err := s.MeasureBatch(ctx, grid, 0)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("pass %d job %d (%s on %s): scheduled measurement differs from local",
					pass, i, grid[i].Bench.Name, grid[i].CP)
			}
		}
		wantMiss, wantHit := int64(len(grid)-overlap), int64(overlap)
		if pass == 2 {
			wantMiss, wantHit = 0, int64(len(grid))
		}
		if dm, dh := misses()-m0, hits()-h0; dm != wantMiss || dh != wantHit {
			t.Errorf("pass %d: %d misses and %d hits, want %d and %d", pass, dm, dh, wantMiss, wantHit)
		}
	}
	if st := s.Stats(); st.CellsAway != 0 || st.Steals != 0 {
		t.Errorf("cells left their home: stats %+v", st)
	}
}

// TestSchedulerDeadHomeDrains: with one of two backends down from the
// start, the survivor takes every lease of the dead backend's home
// (from the back, after draining its own), no run is poisoned under
// the default MaxLeaseFailures, and the CSV is byte-identical.
func TestSchedulerDeadHomeDrains(t *testing.T) {
	_, dead, d := newBackend(t, service.Options{Seed: 42})
	d.dead.Store(true)
	_, live, _ := newBackend(t, service.Options{Seed: 42})
	s, err := NewScheduler([]string{dead.URL, live.URL}, SchedulerOptions{Seed: seedPtr(42), LeaseCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	cps := proc.StockConfigs()[:2]
	ctx := context.Background()
	ref, err := s.Reference(ctx, 0)
	if err != nil {
		t.Fatalf("reference with a dead home: %v", err)
	}
	var got, want bytes.Buffer
	if err := experiments.StreamMeasurementsCSVFrom(ctx, s, ref, cps, &got, 0); err != nil {
		t.Fatalf("study with a dead home: %v", err)
	}
	h, err := harness.New(42)
	if err != nil {
		t.Fatal(err)
	}
	wantRef, err := h.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.StreamMeasurementsCSVFrom(ctx, h, wantRef, cps, &want, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("measurements.csv differs with a dead home (%d vs %d bytes)", got.Len(), want.Len())
	}

	refCells, err := harness.ReferenceCells()
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(s.Backends())
	total, deadHome := 0, 0
	for _, batch := range [][]harness.Job{harness.GridJobs(refCells, nil), harness.GridJobs(cps, nil)} {
		for _, j := range batch {
			total++
			if router.RouteJob(42, j) == dead.URL {
				deadHome++
			}
		}
	}
	st := s.Stats()
	if deadHome == 0 || st.CellsAway != int64(deadHome) || st.CellsMeasured != int64(total) {
		t.Errorf("cells_away = %d of %d measured, want every one of the %d dead-home cells of %d",
			st.CellsAway, st.CellsMeasured, deadHome, total)
	}
	for _, be := range st.Backends {
		if be.URL == live.URL && be.LeaseFailures != 0 {
			t.Errorf("survivor failed %d leases", be.LeaseFailures)
		}
		if be.URL == dead.URL && be.LeaseFailures == 0 {
			t.Error("dead backend was never tried")
		}
	}
}

// TestClusterBreakerFedByHealthz verifies the /healthz prober trips an
// unhealthy backend's breaker, the whole batch completes on the good
// backend while it is open, and a healthy probe closes it again.
func TestClusterBreakerFedByHealthz(t *testing.T) {
	_, good, _ := newBackend(t, service.Options{Seed: 42})
	var healthy atomic.Bool
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(sick.Close)

	s, err := NewScheduler([]string{good.URL, sick.URL}, SchedulerOptions{
		Seed:             seedPtr(42),
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s.ProbeHealth(ctx)
	s.ProbeHealth(ctx)

	backend := func(url string) BackendStats {
		for _, b := range s.Stats().Backends {
			if b.URL == url {
				return b
			}
		}
		t.Fatalf("no stats for backend %s", url)
		return BackendStats{}
	}
	if b := backend(sick.URL); b.State != "open" {
		t.Fatalf("sick backend breaker state %q, want open; stats %+v", b.State, s.Stats())
	}
	if st := s.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("expected breaker opens from health probes, got 0")
	}

	// With the breaker open, the whole batch runs on the good backend:
	// the sick backend's pullers never claim a lease, and the good one
	// takes the sick backend's home too.
	jobs := stockJobs(t, 1)
	ms, err := s.MeasureBatch(ctx, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(jobs) {
		t.Fatalf("got %d measurements, want %d", len(ms), len(jobs))
	}
	sickHome := 0
	for _, j := range jobs {
		if s.router.RouteJob(42, j) == sick.URL {
			sickHome++
		}
	}
	st := s.Stats()
	if sickHome == 0 || st.CellsMeasured != int64(len(jobs)) || st.CellsAway != int64(sickHome) {
		t.Fatalf("cells_measured = %d (away %d), want all %d with the sick backend's %d away",
			st.CellsMeasured, st.CellsAway, len(jobs), sickHome)
	}
	if b := backend(sick.URL); b.LeaseFailures != 0 || b.State != "open" {
		t.Fatalf("open breaker let traffic through: %+v", b)
	}

	// Recovery: a healthy probe closes the breaker.
	healthy.Store(true)
	s.ProbeHealth(ctx)
	if b := backend(sick.URL); b.State != "closed" {
		t.Fatalf("recovered backend breaker state %q, want closed", b.State)
	}
}
