package pipeline

import "vprofile/internal/obs"

// Metrics is the replay pipeline's instrument set: throughput
// counters for the reader and sink stages, a decode-latency histogram
// for the sample-inflation step the workers run, a latency histogram
// for the sequential stage (stateful detectors plus the sink), and a
// gauge tracking the reorder queue's depth. Build one with NewMetrics
// and pass it through Config; nil leaves the pipeline exactly as
// cheap as the uninstrumented build.
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
	// not yet returned. Refreshed at batch boundaries in the
	// reordering stage, alongside QueueDepth, so the hot path pays no
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
			"Per-record header copy and sample-view latency in the worker pool (traced replays also copy the samples).", obs.LatencyBuckets()),
		SequenceSeconds: reg.Histogram("vprofile_pipeline_sequence_seconds",
			"Per-record stateful-detector + sink latency in the reordering stage.", obs.LatencyBuckets()),
		QueueDepth: reg.Gauge("vprofile_pipeline_reorder_queue_depth",
			"Out-of-order results parked in the reordering stage."),
		PoolOutstanding: reg.Gauge("pool_outstanding_buffers",
			"Pooled raw record/batch buffers checked out of the pipeline recycler and not yet returned."),
	}
}
