package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// daemon is one in-process powerperfd on a loopback port, built with
// the daemon's defaults: SLO engine on, full tracing, and a study store
// in its own directory (powerperfd -store-dir).
type daemon struct {
	srv       *service.Server
	st        *store.Store
	dir       string
	hs        *http.Server
	served    chan struct{}
	url       string
	storeOpen time.Duration
}

// startDaemon opens a fresh store under workDir and serves a daemon with
// the given worker count. wrap, when non-nil, sits around the daemon's
// handler (the traced run's server-side timer).
func startDaemon(workDir string, seed int64, workers int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{st: st, dir: dir, storeOpen: time.Since(t0), served: make(chan struct{})}
	d.srv = service.NewServer(service.Options{
		Seed:    seed,
		Workers: workers,
		Store:   st,
		SLO:     service.DefaultSLOConfig(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = d.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.url = "http://" + ln.Addr().String()
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

// close drains the daemon (sealing its store), stops serving, and
// removes the store directory.
func (d *daemon) close() error {
	d.srv.Drain()
	err := d.hs.Close()
	<-d.served
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// spans fetches the daemon's retained spans in raw form.
func (d *daemon) spans(ctx context.Context, hc *http.Client) ([]telemetry.SpanData, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/traces?format=spans", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/traces: %s", d.url, resp.Status)
	}
	var spans []telemetry.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, fmt.Errorf("%s/v1/traces: %w", d.url, err)
	}
	return spans, nil
}

func closeAll(ds []*daemon) error {
	var errs []error
	for _, d := range ds {
		errs = append(errs, d.close())
	}
	return errors.Join(errs...)
}

// newTransport is the scheduler's own default transport: pooled
// keep-alive connections sized to the pullers per backend.
func newTransport(idlePerHost int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = idlePerHost
	return tr
}

// opHeader tags a traced request with the benchmark's name for it, so
// the server-side timer can split hits from misses; the daemon ignores
// it.
const opHeader = "X-Perfbench-Op"

// serverTap times POST /v1/measure inside the daemon's HTTP server,
// outside service.Server.Handler: the server-side request time, split by
// the label the request carries or, failing that, the current phase. A
// request that carries a caller's trace headers also gets a
// service.request span in the benchmark's tracer, under the caller's
// span.
type serverTap struct {
	tr    *telemetry.Tracer
	mu    sync.Mutex
	phase string
	durs  map[string][]time.Duration
}

func newServerTap(tr *telemetry.Tracer) *serverTap {
	return &serverTap{tr: tr, durs: make(map[string][]time.Duration)}
}

func (t *serverTap) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

func (t *serverTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/measure" {
			next.ServeHTTP(w, r)
			return
		}
		var sp *telemetry.Span
		if trace, parent, ok := telemetry.ExtractHeaders(r.Header); ok {
			_, sp = t.tr.StartRemote(r.Context(), trace, parent, "service.request")
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(start)
		sp.End()
		t.mu.Lock()
		label := r.Header.Get(opHeader)
		if label == "" {
			label = t.phase
		}
		t.durs[label] = append(t.durs[label], d)
		t.mu.Unlock()
	})
}

// all returns every recorded duration.
func (t *serverTap) all() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, ds := range t.durs {
		out = append(out, ds...)
	}
	return out
}

func (t *serverTap) get(label string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.durs[label]...)
}

// clientTap is an http.RoundTripper around the scheduler's transport: it
// times each lease to its first response byte and to the end of its
// body, counts the body bytes, and keeps the bodies while capturing.
type clientTap struct {
	base http.RoundTripper

	mu      sync.Mutex
	capture bool
	ttfb    []time.Duration
	lease   []time.Duration
	bytes   int64
	bodies  [][]byte
}

func (t *clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/measure" {
		return resp, err
	}
	t.mu.Lock()
	t.ttfb = append(t.ttfb, time.Since(start))
	capture := t.capture
	t.mu.Unlock()
	resp.Body = &tapBody{ReadCloser: resp.Body, tap: t, start: start, capture: capture}
	return resp, nil
}

func (t *clientTap) setCapture(on bool) {
	t.mu.Lock()
	t.capture = on
	t.mu.Unlock()
}

type tapBody struct {
	io.ReadCloser
	tap     *clientTap
	start   time.Time
	capture bool
	n       int64
	buf     []byte
	once    sync.Once
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if b.capture {
		b.buf = append(b.buf, p[:n]...)
	}
	if err == io.EOF {
		b.done()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}

func (b *tapBody) done() {
	b.once.Do(func() {
		b.tap.mu.Lock()
		b.tap.lease = append(b.tap.lease, time.Since(b.start))
		b.tap.bytes += b.n
		if b.capture {
			b.tap.bodies = append(b.tap.bodies, b.buf)
		}
		b.tap.mu.Unlock()
	})
}
