package traceanalytics

import "strings"

// Stage names. Critical-path segments are attributed to a small fixed
// vocabulary of pipeline stages so shares are comparable across
// studies, backends, and PRs; the monitor exports one
// trace_stage_share series per name and alerts on shifts.
const (
	StageQueueWait   = "queue_wait"        // service.queue: waiting for a worker lane
	StageCacheLookup = "cache_lookup"      // service.cell that hit the cache
	StageKernel      = "kernel_compute"    // service.cell that filled (kernel measure)
	StageLease       = "lease_acquisition" // scheduler.lease, first dispatch
	StageSteal       = "steal_redispatch"  // scheduler.lease, stolen or re-dispatched
	StageNetwork     = "network"           // scheduler batch root + http serving overhead
	StageIngest      = "ingest"            // service.ingest: durable study commit
	StageOther       = "other"             // everything else, incl. assembly gaps
)

// Stages returns the full stage vocabulary in display order. The
// monitor pushes one fleet series per entry every sweep, so the set
// (and its order) is part of the series contract.
func Stages() []string {
	return []string{
		StageQueueWait, StageCacheLookup, StageKernel, StageLease,
		StageSteal, StageNetwork, StageIngest, StageOther,
	}
}

// StageOf maps one span to its pipeline stage using the span name and
// the stage-relevant attrs minted at the instrumentation sites.
func StageOf(s Span) string {
	switch s.Name {
	case "service.cell":
		if s.Attr("outcome") == "hit" {
			return StageCacheLookup
		}
		return StageKernel
	case "service.queue":
		return StageQueueWait
	case "service.ingest":
		return StageIngest
	case "scheduler.lease":
		switch s.Attr("kind") {
		case "steal", "redispatch":
			return StageSteal
		default:
			return StageLease
		}
	case "scheduler.MeasureBatch":
		return StageNetwork
	}
	if strings.HasPrefix(s.Name, "http.") {
		// Server-side self time around the cells: decode, fan-out,
		// encode — transport-adjacent overhead.
		return StageNetwork
	}
	return StageOther
}
