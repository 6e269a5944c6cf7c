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
//
// The pools hold pointers: a slice put into a sync.Pool is boxed into a
// fresh interface value, one allocation per batch, which a live feed
// shipping one-record batches would pay on every frame.
var (
	jobBatchPool    = sync.Pool{New: func() any { return new(jobBatch) }}
	scoredBatchPool = sync.Pool{New: func() any { return new(scoredBatch) }}
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

func (rc *recycler) getJobBatch() *jobBatch {
	rc.outstanding.Add(1)
	b := jobBatchPool.Get().(*jobBatch)
	if cap(b.jobs) < rc.batch {
		b.jobs = make([]job, 0, rc.batch)
	}
	return b
}

func (rc *recycler) putJobBatch(b *jobBatch) {
	rc.outstanding.Add(-1)
	clear(b.jobs) // drop record/trace pointers so the pool retains nothing
	b.jobs, b.run = b.jobs[:0], nil
	jobBatchPool.Put(b)
}

func (rc *recycler) getScoredBatch() *scoredBatch {
	rc.outstanding.Add(1)
	b := scoredBatchPool.Get().(*scoredBatch)
	if cap(b.items) < rc.batch {
		b.items = make([]scored, 0, rc.batch)
	}
	return b
}

func (rc *recycler) putScoredBatch(b *scoredBatch) {
	rc.outstanding.Add(-1)
	clear(b.items)
	b.items = b.items[:0]
	scoredBatchPool.Put(b)
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
func (rc *recycler) releaseJobs(b *jobBatch) {
	for i := range b.jobs {
		rc.putRaw(b.jobs[i].raw)
	}
	rc.putJobBatch(b)
}

// releaseScored returns an abandoned scored batch and the record
// buffers its undelivered entries still hold (raw is nil by this
// stage).
func (rc *recycler) releaseScored(b *scoredBatch) {
	for i := range b.items {
		rc.putRec(b.items[i].rec)
	}
	rc.putScoredBatch(b)
}
