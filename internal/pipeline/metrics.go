package pipeline

import "vprofile/internal/obs"

// Metrics is the replay pipeline's instrument set: throughput
// counters for the reader and sink steps, a decode-latency histogram
// for the header copy and sample view scoring starts with, a latency
// histogram for the delivery turn (stateful detectors plus the sink),
// and a gauge tracking the records parked on the turn. Build one with
// NewMetrics and pass it through Config; nil leaves the pipeline
// exactly as cheap as the uninstrumented build.
//
// These instruments accumulate across replays when several runs share
// one registry — the per-run view stays available through Stats.
type Metrics struct {
	RecordsIn       *obs.Counter
	RecordsOut      *obs.Counter
	ExtractFailures *obs.Counter
	DecodeSeconds   *obs.Histogram
	SequenceSeconds *obs.Histogram
	QueueDepth      *obs.Gauge
	// PoolOutstanding mirrors the buffer recycler's gets-minus-puts
	// balance (see recycle.go): buffers checked out of the pools and
	// not yet returned. Refreshed whenever a goroutine gives the
	// delivery turn back, alongside QueueDepth, so the hot path pays no
	// extra atomics; a value that keeps climbing between scrapes means
	// buffers are leaking out of the recycler.
	PoolOutstanding *obs.Gauge
}

// NewMetrics registers the pipeline instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		RecordsIn: reg.Counter("vprofile_pipeline_records_in_total",
			"Records the reader stage pulled off the capture source."),
		RecordsOut: reg.Counter("vprofile_pipeline_records_out_total",
			"Verdicts delivered, in record order, to the sink."),
		ExtractFailures: reg.Counter("vprofile_pipeline_extract_failures_total",
			"Records whose trace failed preprocessing (delivered with ExtractErr set)."),
		DecodeSeconds: reg.Histogram("vprofile_pipeline_decode_seconds",
			"Per-record header copy and sample-view latency while scoring (traced replays also copy the samples).", obs.LatencyBuckets()),
		SequenceSeconds: reg.Histogram("vprofile_pipeline_sequence_seconds",
			"Per-record stateful-detector + sink latency on the delivery turn.", obs.LatencyBuckets()),
		QueueDepth: reg.Gauge("vprofile_pipeline_reorder_queue_depth",
			"Out-of-order results parked on the delivery turn."),
		PoolOutstanding: reg.Gauge("pool_outstanding_buffers",
			"Pooled raw record/batch buffers checked out of the pipeline recycler and not yet returned."),
	}
}
