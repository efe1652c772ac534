package telemetry

import (
	"context"
	"io"
	"log/slog"
	"os"
	"sync"
)

// Structured logging: every subsystem (powerperfd, fullstudy, the
// cluster scheduler) logs through one shared handler so lines carry a
// uniform shape — level, subsystem, message, fields — and any record
// emitted under a traced context automatically carries its trace_id,
// joining logs to spans.

var (
	logMu    sync.Mutex
	logOut   io.Writer = os.Stderr
	logLevel           = func() *slog.LevelVar { v := new(slog.LevelVar); v.Set(slog.LevelInfo); return v }()
)

// SetLogOutput redirects all telemetry loggers (tests capture lines
// here). The default is stderr, never stdout: CLI data channels (CSV
// streams) stay byte-clean with logging enabled.
func SetLogOutput(w io.Writer) {
	logMu.Lock()
	logOut = w
	logMu.Unlock()
}

// SetLogLevel adjusts the shared level for all telemetry loggers.
func SetLogLevel(l slog.Level) { logLevel.Set(l) }

// lockedWriter serializes writes and follows SetLogOutput swaps.
type lockedWriter struct{}

func (lockedWriter) Write(p []byte) (int, error) {
	logMu.Lock()
	defer logMu.Unlock()
	return logOut.Write(p)
}

// traceHandler decorates records with the current span's trace_id,
// pulled from the context slog threads through Handle.
type traceHandler struct{ inner slog.Handler }

func (h traceHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if s := SpanFromContext(ctx); s != nil {
		r.AddAttrs(slog.String("trace_id", s.Trace().String()))
	}
	return h.inner.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.inner.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.inner.WithGroup(name)}
}

// Logger returns a structured logger tagged with the subsystem. Use
// the ctx-aware methods (InfoContext etc.) to stamp records with the
// active trace.
func Logger(subsystem string) *slog.Logger {
	h := slog.NewTextHandler(lockedWriter{}, &slog.HandlerOptions{Level: logLevel})
	return slog.New(traceHandler{h}).With(slog.String("subsystem", subsystem))
}
