// Package telemetry is the observability substrate of the study
// pipeline: request-scoped spans with monotonic timing and parent
// links, lock-free log-bucketed latency histograms, and structured
// logging with shared trace correlation.
//
// The package exists for the same reason the paper's rig pairs every
// benchmark run with a 50 Hz power logger: averages hide phase
// structure. A distributed study that steals and re-dispatches leases
// is opaque unless every decision is timestamped and attributable, so the
// tracer records where a slow study spent its time and the histograms
// record the full latency distribution, not just means.
//
// Telemetry is a pure side channel. Nothing here feeds back into the
// measurement pipeline: spans and histograms observe wall-clock
// durations and counts, never seeds or measured values, so a study's
// CSV bytes are identical with tracing enabled or disabled (enforced
// by TestStudyBytesIdenticalWithTracing).
package telemetry

import (
	"fmt"
	"strconv"
)

// TraceID identifies one request tree end to end, across processes:
// the cluster scheduler mints it and backends adopt it from the
// X-Trace-Id header, so backend spans stitch into the coordinator's
// trace.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the id as 16 lowercase hex digits, the wire form used
// in headers and log lines.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the id as 16 lowercase hex digits.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the 16-hex-digit wire form of a trace or span id.
func ParseID(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("telemetry: bad id %q: %w", s, err)
	}
	return v, nil
}

// Attr is one key=value span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }
