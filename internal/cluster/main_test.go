package cluster

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestMain quiets scheduler and backend access logging: the suite
// deliberately provokes failed dispatches, steals, and re-dispatches,
// each of which logs. Warn keeps genuine failures visible.
func TestMain(m *testing.M) {
	telemetry.SetLogLevel(slog.LevelWarn)
	os.Exit(m.Run())
}

// deadable simulates a backend process death: once dead, every new
// request is severed without a response (the client sees a transport
// error, exactly as with a killed process), while the wrapped service
// keeps running so in-flight compute drains harmlessly.
type deadable struct {
	h    http.Handler
	dead atomic.Bool
}

func (d *deadable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	d.h.ServeHTTP(w, r)
}

func newBackend(t *testing.T, opts service.Options) (*service.Server, *httptest.Server, *deadable) {
	t.Helper()
	srv := service.NewServer(opts)
	d := &deadable{h: srv.Handler()}
	ts := httptest.NewServer(d)
	t.Cleanup(ts.Close)
	return srv, ts, d
}

// seedPtr builds a SchedulerOptions seed pointer.
func seedPtr(v int64) *int64 { return &v }

func stockJobs(t *testing.T, n int) []harness.Job {
	t.Helper()
	cps := proc.StockConfigs()
	if n > len(cps) {
		n = len(cps)
	}
	return harness.GridJobs(cps[:n], nil)
}
