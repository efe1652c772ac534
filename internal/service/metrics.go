package service

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// handleMetricsz renders the server counters in the Prometheus text
// exposition format, so cluster tests and fleet operators can scrape
// backend load with stock tooling. Families are emitted in a fixed
// order. It is the only wire rendering of Stats(): every field appears
// here, the seed as a label so any int64 survives exactly, and the
// store block only when a store is attached.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
	}

	// Build identity first: one constant-1 gauge whose labels carry the
	// version stamp, the stock Prometheus idiom for joining every other
	// series to the code that produced it.
	bi := telemetry.BuildInfo()
	name := "powerperf_build_info"
	fmt.Fprintf(&b, "# HELP %s Build identity of this process; the value is always 1.\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(&b, "%s{version=%s,commit=%s,go=%s,modified=\"%t\"} 1\n",
		name, telemetry.PromQuote(bi.Version), telemetry.PromQuote(bi.Commit), telemetry.PromQuote(bi.GoVersion), bi.Modified)
	name = "powerperfd_info"
	fmt.Fprintf(&b, "# HELP %s Daemon identity; the value is always 1.\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(&b, "%s{seed=\"%d\"} 1\n", name, st.Seed)

	gauge("powerperfd_uptime_seconds", "Seconds since the daemon started.", st.UptimeS)
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	gauge("powerperfd_draining", "1 while graceful shutdown is in progress.", draining)

	counter("powerperfd_cache_hits_total", "Measure cells served from a completed cache entry.", st.Cache.Hits)
	counter("powerperfd_cache_misses_total", "Measure cell fills started.", st.Cache.Misses)
	counter("powerperfd_cache_coalesced_total", "Measure cells that waited on another requester's fill (duplicate suppression).", st.Cache.Coalesced)
	counter("powerperfd_cache_evictions_total", "Completed cache entries evicted by the LRU bound.", st.Cache.Evictions)
	gauge("powerperfd_cache_entries", "Resident cache entries.", float64(st.Cache.Entries))
	gauge("powerperfd_cache_capacity", "Cache capacity in cells.", float64(st.Cache.Capacity))

	name = "powerperfd_cache_shard_entries"
	fmt.Fprintf(&b, "# HELP %s Resident entries per cache shard.\n# TYPE %s gauge\n", name, name)
	for i, l := range st.Cache.Shards {
		fmt.Fprintf(&b, "%s{shard=\"%d\"} %d\n", name, i, l)
	}

	gauge("powerperfd_queue_depth", "Measurement tasks queued, not yet executing.", float64(st.Queue.Depth))
	name = "powerperfd_queue_lane_depth"
	fmt.Fprintf(&b, "# HELP %s Measurement tasks queued per priority lane.\n# TYPE %s gauge\n", name, name)
	fmt.Fprintf(&b, "%s{lane=\"interactive\"} %d\n", name, st.Queue.InteractiveDepth)
	fmt.Fprintf(&b, "%s{lane=\"bulk\"} %d\n", name, st.Queue.BulkDepth)
	gauge("powerperfd_queue_capacity", "Bounded measurement queue capacity.", float64(st.Queue.Capacity))
	gauge("powerperfd_inflight_workers", "Measurement closures currently executing.", float64(st.Queue.Inflight))
	gauge("powerperfd_workers", "Measurement worker count.", float64(st.Queue.Workers))

	name = "powerperfd_requests_total"
	fmt.Fprintf(&b, "# HELP %s Requests per endpoint family.\n# TYPE %s counter\n", name, name)
	fmt.Fprintf(&b, "%s{endpoint=\"measure\"} %d\n", name, st.Requests.Measure)
	fmt.Fprintf(&b, "%s{endpoint=\"experiments\"} %d\n", name, st.Requests.Experiments)
	fmt.Fprintf(&b, "%s{endpoint=\"dataset\"} %d\n", name, st.Requests.Dataset)
	fmt.Fprintf(&b, "%s{endpoint=\"studies\"} %d\n", name, st.Requests.Studies)
	counter("powerperfd_measure_streams_total", "Measure requests served over chunked NDJSON (a subset of endpoint=\"measure\").", st.Requests.MeasureStreams)

	if ss := st.Store; ss != nil {
		gauge("powerperfd_store_segments", "Sealed segments in the study store.", float64(ss.Segments))
		gauge("powerperfd_store_rows", "Rows held by the study store.", float64(ss.Rows))
		gauge("powerperfd_store_bytes", "Bytes held by the study store.", float64(ss.Bytes))
		gauge("powerperfd_store_last_seal_unix", "Unix time of the newest segment seal.", float64(ss.LastSealUnix))
		counter("powerperfd_store_recorded_studies_total", "Studies sealed into the store by this process.", ss.Recorded)
		counter("powerperfd_store_recorded_rows_total", "Rows sealed into the store by this process.", ss.RecordedRows)
		counter("powerperfd_store_dropped_studies_total", "Studies dropped because the ingest queue was full.", ss.Dropped)
		counter("powerperfd_store_write_errors_total", "Study appends or syncs that failed.", ss.WriteErrors)
	}

	// Latency distributions: every histogram family in the process-global
	// registry (cell fills, harness batches/cells, HTTP request times,
	// cluster per-backend exchanges when a coordinator shares the
	// process) renders as a Prometheus histogram after the counters.
	telemetry.Default.WritePrometheus(&b)

	// SLO state last: error budgets, burn rates, and alert states per
	// objective, which the fleet monitor federates onto the dashboard.
	// Rendering advances the engine, so scrapes double as its clock.
	if s.sloEng != nil {
		s.sloEng.WriteMetrics(&b, time.Now())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
