package pipeline

import (
	"sync"
	"sync/atomic"

	"vprofile/internal/trace"
)

// The buffer pools are package-level, shared by every replay in the
// process: a new session, a re-attached bus or a reconnecting feed
// starts on warm buffers instead of refilling its whole in-flight set
// from the heap. Pooled batch slices carry no record pointers (they are
// cleared on put) and pooled records are fully overwritten on reuse,
// so sharing is invisible to verdicts.
var (
	jobBatchPool    sync.Pool
	scoredBatchPool sync.Pool
	rawPool         = sync.Pool{New: func() any { return new(trace.RawRecord) }}
	recPool         = sync.Pool{New: func() any { return new(trace.Record) }}
)

// maxPooledSamples bounds the trace capacity a pooled record may keep:
// about 2.4 times the longest stuffed extended frame at the fastest
// digitiser rate (~13.6k samples at 20 MS/s, 250 kb/s). Buffers grown
// past it — one hostile or corrupt record may claim up to 16M samples,
// 128 MiB of float64 — go back to the garbage collector instead of
// staying pinned in a pool.
const maxPooledSamples = 1 << 15

// recycler is one replay's view of the shared pools: it hands out
// per-batch and per-record buffers so the steady-state hot path stops
// allocating, and counts them. Every replay pools both; a traced
// replay's flight decisions copy what they keep of a record, so no
// record outlives its sink call.
//
// outstanding counts this replay's gets minus puts across every pooled
// object kind. A replay that ends — cleanly, on a sink error, or
// abandoned mid-batch — must return every buffer it took, or an
// abandoned batch would strand its buffers (and, before this
// accounting existed, silently mask a stranded worker slot).
type recycler struct {
	batch int

	outstanding atomic.Int64
}

func (rc *recycler) getJobBatch() []job {
	rc.outstanding.Add(1)
	if b, ok := jobBatchPool.Get().([]job); ok && cap(b) >= rc.batch {
		return b
	}
	return make([]job, 0, rc.batch)
}

func (rc *recycler) putJobBatch(b []job) {
	rc.outstanding.Add(-1)
	clear(b) // drop record/trace pointers so the pool retains nothing
	jobBatchPool.Put(b[:0])
}

func (rc *recycler) getScoredBatch() []scored {
	rc.outstanding.Add(1)
	if b, ok := scoredBatchPool.Get().([]scored); ok && cap(b) >= rc.batch {
		return b
	}
	return make([]scored, 0, rc.batch)
}

func (rc *recycler) putScoredBatch(b []scored) {
	rc.outstanding.Add(-1)
	clear(b)
	scoredBatchPool.Put(b[:0])
}

func (rc *recycler) getRaw() *trace.RawRecord {
	rc.outstanding.Add(1)
	return rawPool.Get().(*trace.RawRecord)
}

func (rc *recycler) putRaw(r *trace.RawRecord) {
	rc.outstanding.Add(-1)
	if cap(r.Codes) > 2*maxPooledSamples {
		return
	}
	rawPool.Put(r)
}

func (rc *recycler) getRec() *trace.Record {
	rc.outstanding.Add(1)
	return recPool.Get().(*trace.Record)
}

func (rc *recycler) putRec(r *trace.Record) {
	if r == nil {
		return
	}
	rc.outstanding.Add(-1)
	if cap(r.Trace) > maxPooledSamples {
		return
	}
	recPool.Put(r)
}

// releaseJobs returns an abandoned job batch and the raw record every
// job in it still holds (jobs are decoded only inside processBatch).
func (rc *recycler) releaseJobs(b []job) {
	for i := range b {
		rc.putRaw(b[i].raw)
	}
	rc.putJobBatch(b)
}

// releaseScored returns an abandoned scored batch and the record
// buffers its undelivered entries still hold (raw is nil by this
// stage).
func (rc *recycler) releaseScored(b []scored) {
	for i := range b {
		rc.putRec(b[i].rec)
	}
	rc.putScoredBatch(b)
}
