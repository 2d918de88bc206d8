package server

import (
	"time"

	"cgraph"
	"cgraph/internal/metrics"
)

// serviceObs bundles the service's latency histograms: every hot seam the
// Prometheus endpoint exposes as a cgraph_* histogram family observes
// through one of these. All of them are safe for concurrent use.
type serviceObs struct {
	// httpLatency measures each /v1 request end-to-end, labelled by route
	// pattern, method, and status code (middleware in http.go).
	httpLatency *metrics.HistogramVec
	// queueWait measures submission → engine admission per job.
	queueWait *metrics.Histogram
	// exec measures admission → terminal state per job, by algorithm.
	exec *metrics.HistogramVec
	// ingestFlush measures delta-pipeline flush latency by trigger;
	// ingestBatch the coalesced batch size each flush drained.
	ingestFlush *metrics.HistogramVec
	ingestBatch *metrics.Histogram
	// materialize measures snapshot materialization latency by path, the
	// snapshot's shape: "overlay" (slot count and vertex space unchanged)
	// or "restructure" (either moved). Both share untouched partitions.
	materialize *metrics.HistogramVec
}

func newServiceObs() *serviceObs {
	return &serviceObs{
		httpLatency: metrics.NewHistogramVec(metrics.LatencyBuckets(), "route", "method", "code"),
		queueWait:   metrics.NewHistogram(metrics.LatencyBuckets()),
		exec:        metrics.NewHistogramVec(metrics.LatencyBuckets(), "algo"),
		ingestFlush: metrics.NewHistogramVec(metrics.LatencyBuckets(), "trigger"),
		ingestBatch: metrics.NewHistogram(metrics.SizeBuckets()),
		materialize: metrics.NewHistogramVec(metrics.LatencyBuckets(), "path"),
	}
}

// onIngestEvent folds the system's ingestion/retention events into the
// flush histograms and the structured log. It runs under pipeline or store
// locks, so it must stay cheap and never call back into the System.
func (s *Service) onIngestEvent(ev cgraph.IngestEvent) {
	switch ev.Kind {
	case cgraph.IngestFlush:
		s.obs.ingestFlush.With(ev.Trigger).Observe(ev.Duration.Seconds())
		s.obs.ingestBatch.Observe(float64(ev.Mutations))
		// request_id/trace_id join the flush to the HTTP request that opened
		// its coalescing window, so a slow flush is attributable end-to-end.
		s.log.Info("delta flush",
			"trigger", ev.Trigger,
			"mutations", ev.Mutations,
			"built", ev.Built,
			"latency_ms", durationMS(ev.Duration),
			"timestamp", ev.Timestamp,
			"request_id", ev.RequestID,
			"trace_id", ev.TraceID)
	case cgraph.IngestMaterialize:
		s.obs.materialize.With(ev.Path).Observe(ev.Duration.Seconds())
		s.log.Debug("snapshot materialized",
			"path", ev.Path,
			"slots", ev.Mutations,
			"latency_ms", durationMS(ev.Duration),
			"timestamp", ev.Timestamp)
	case cgraph.IngestEvict:
		s.log.Info("snapshot evicted",
			"seq", ev.Seq,
			"timestamp", ev.Timestamp,
			"trigger", "retention")
	}
}

// durationMS renders a duration as fractional milliseconds for log fields.
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
