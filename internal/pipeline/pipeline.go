// Package pipeline replays capture files through the composite IDS
// concurrently while producing verdicts bit-for-bit identical to the
// sequential path.
//
// The replay is a three-stage pipeline:
//
//  1. a reader goroutine pulls records off the capture stream in
//     order and tags each with its index — kept deliberately thin
//     (raw records, sample codes still packed, refilled into pooled
//     buffers) because stream decoding is the one inherently serial
//     stage;
//  2. a worker pool fans out the stateless hot path — edge-set
//     extraction and vProfile scoring straight from each record's
//     packed ADC codes (Composite.VoltageVerdictCodes, with a nil
//     trace on an untraced replay) — across GOMAXPROCS goroutines;
//  3. a reordering stage re-sequences results by record index and
//     runs the stateful detectors (period monitor, transport
//     reassembly) in arrival order via Composite.Sequence.
//
// Stages exchange batches of up to Config.Batch records (default 64),
// so when records arrive faster than they are scored — a file, or a
// saturated socket — channel operations, pool submissions and
// scheduler wakeups amortise over many frames. A batch is an upper
// bound, not a quota: the reader ships what it holds as soon as its
// source has nothing more buffered (Source.Buffered), before a read
// that may block, so on a live feed a frame's verdict never waits for
// later frames to arrive. Handing a partial batch on allocates
// nothing. Batching changes only the transport granularity: records
// keep their stream indices and the reordering stage still delivers
// strictly in index order, so verdicts remain bit-identical to the
// sequential path at any batch size and any flush pattern.
//
// All channels are bounded, so a slow sink backpressures the reader
// instead of ballooning memory; the first error from any stage stops
// the whole pipeline cleanly. Per-stage counters are readable at any
// time through Stats.
package pipeline

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/ids"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/trace"
)

// Source yields capture records in order by refilling a caller-owned
// raw record, overwriting every field, and returns io.EOF at the end
// of the stream. The sample codes stay packed: workers score them in
// that form, and the pipeline recycles raw record buffers end to end.
// Buffered reports how many bytes the source has already taken off its
// transport; zero means the next read may block, so the reader ships
// its partial batch first. *trace.Reader and engine.StreamSource
// implement it.
type Source interface {
	NextRawInto(*trace.RawRecord) error
	Buffered() int
}

// DefaultBatch is the records-per-batch bound (Config.Batch = 0):
// large enough to amortise channel and pool synchronisation while
// records are waiting, small enough that a batch stays resident in
// cache through scoring.
const DefaultBatch = 64

// Config parameterises a replay.
type Config struct {
	// Workers is the extraction/scoring pool size; zero or negative
	// means runtime.GOMAXPROCS(0). Ignored when Pool is set.
	Workers int
	// Pool, when non-nil, runs the hot path on a shared worker pool
	// instead of a private one — several concurrent replays (fleet
	// mode) then contend for one bounded set of goroutines. The pool
	// must outlive the replay; the replay does not close it.
	Pool *Pool
	// Batch is the most records exchanged per channel operation
	// between stages; zero means DefaultBatch. It is an upper bound:
	// the reader ships a partial batch whenever its source has nothing
	// buffered, so a live feed gets a verdict per frame as it arrives
	// at any batch size, and a batch of one buys no latency, only more
	// handoffs. Verdicts and their order are identical at every batch
	// size.
	Batch int
	// Depth is the capacity of each inter-stage channel in batches,
	// bounding how far the reader may run ahead of the sink (roughly
	// Depth×Batch records per channel); zero means 4×Workers.
	Depth int
	// Metrics, when non-nil, makes the pipeline publish per-stage
	// counters, latency histograms and the reorder-queue depth gauge
	// (see NewMetrics). Instrumentation is atomic-only on the hot path
	// and never changes verdicts or their order.
	Metrics *Metrics
	// Recorder, when non-nil, turns on per-frame tracing and flight
	// recording: every record gets a deterministic TraceID and a span
	// per pipeline stage, and its full decision context — raw
	// samples, edge set, per-cluster distances, detector state — is
	// pushed into the recorder's ring, where alarms freeze forensic
	// bundles. Tracing never changes verdicts or their order; nil
	// keeps the replay on the uninstrumented fast path.
	Recorder *tracing.Recorder
	// StallTimeout arms the slow-sink watchdog: if the pipeline makes
	// no progress — no record scored by a worker and no verdict
	// delivered to the sink — for this long while records are pending,
	// the replay aborts with ErrStalled instead of sitting wedged
	// behind its (deliberately bounded) queues. Scoring counts as
	// progress so that a large Batch being worked on does not read as
	// a stall; a wedged sink still fires the watchdog because the
	// workers block once the bounded queues fill and all progress
	// stops. The watchdog unblocks every pipeline goroutine; a sink
	// call that never returns still holds Run until it does. Zero
	// disables.
	StallTimeout time.Duration
}

// ErrStalled is returned by Run when the slow-sink watchdog fires:
// records were pending but none reached the sink within
// Config.StallTimeout.
var ErrStalled = errors.New("pipeline: replay stalled (sink made no progress within StallTimeout)")

// Result is one record's verdict, delivered to the sink in record
// order.
//
// Record carries the frame's header and payload but no samples: its
// Trace is empty, because the verdict is scored from the record's
// packed codes and no float64 trace is ever built. A traced replay's
// flight decision keeps the samples instead.
//
// Aliasing contract: a sink that keeps anything a Result points to
// past its own call must copy it. On every replay, traced or not,
// Frame and Record — Record.Data included — live in the pipeline's
// recycled batch storage, and Frame.Data aliases Record.Data. Index,
// Verdict and Trace may be kept freely.
type Result struct {
	Index   int
	Record  *trace.Record
	Frame   *canbus.ExtendedFrame
	Verdict ids.CompositeResult
	// Trace is the frame's span trace on a traced replay (Config has a
	// Recorder), nil otherwise. Sinks may read it — e.g. to join event
	// lines to flight-recorder decisions by TraceID — but must not
	// mutate it.
	Trace *tracing.FrameTrace
}

// Sink receives results in record order. A non-nil error stops the
// replay. A nil Sink discards results (useful for benchmarks).
type Sink func(Result) error

// Stats is a snapshot of the pipeline's per-stage counters. It may be
// taken while the replay is still running.
type Stats struct {
	Workers int
	// RecordsIn counts records the reader stage pulled off the
	// source; RecordsOut counts verdicts delivered to the sink.
	RecordsIn  int64
	RecordsOut int64
	// ExtractFailures counts records whose trace would not
	// preprocess (they still produce a Result, with ExtractErr set).
	ExtractFailures int64
	// WallTime is the elapsed replay time; WorkerBusy is the summed
	// time workers spent extracting and scoring.
	WallTime   time.Duration
	WorkerBusy time.Duration
	// BuffersOutstanding counts the pooled batch and raw record buffers
	// the replay has taken and not yet returned. Once Run has returned —
	// cleanly, on error or abandoned — it must be zero; anything else
	// is a leak.
	BuffersOutstanding int64
}

// Utilization is the fraction of total worker capacity spent doing
// work: WorkerBusy / (WallTime × Workers).
func (s Stats) Utilization() float64 {
	if s.WallTime <= 0 || s.Workers <= 0 {
		return 0
	}
	return float64(s.WorkerBusy) / (float64(s.WallTime) * float64(s.Workers))
}

// Replayer drives one capture replay. Create with New, run with Run,
// observe with Stats.
type Replayer struct {
	mon      *ids.Composite
	pool     *Pool // shared pool; nil means Run creates a private one
	workers  int
	batch    int
	depth    int
	metrics  *Metrics
	recorder *tracing.Recorder
	stall    time.Duration

	// rc is the replay's buffer accounting.
	rc *recycler

	ran             atomic.Bool
	recordsIn       atomic.Int64
	recordsOut      atomic.Int64
	recordsScored   atomic.Int64
	extractFailures atomic.Int64
	busyNanos       atomic.Int64
	startNanos      atomic.Int64
	wallNanos       atomic.Int64
}

// New builds a replayer around a composite monitor. The monitor must
// not be used by anyone else while Run is in flight.
func New(mon *ids.Composite, cfg Config) (*Replayer, error) {
	if mon == nil {
		return nil, errors.New("pipeline: nil monitor")
	}
	workers := cfg.Workers
	if cfg.Pool != nil {
		workers = cfg.Pool.Workers()
	} else if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = DefaultBatch
	}
	if batch < 1 {
		batch = 1
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = 4 * workers
	}
	return &Replayer{
		mon: mon, pool: cfg.Pool, workers: workers, batch: batch, depth: depth,
		metrics: cfg.Metrics, recorder: cfg.Recorder, stall: cfg.StallTimeout,
		rc: &recycler{batch: batch},
	}, nil
}

// Stats returns a snapshot of the per-stage counters.
func (p *Replayer) Stats() Stats {
	wall := time.Duration(p.wallNanos.Load())
	if wall == 0 {
		if start := p.startNanos.Load(); start != 0 {
			wall = time.Duration(time.Now().UnixNano() - start)
		}
	}
	return Stats{
		Workers:            p.workers,
		RecordsIn:          p.recordsIn.Load(),
		RecordsOut:         p.recordsOut.Load(),
		ExtractFailures:    p.extractFailures.Load(),
		WallTime:           wall,
		WorkerBusy:         time.Duration(p.busyNanos.Load()),
		BuffersOutstanding: p.rc.outstanding.Load(),
	}
}

// job is a record travelling from the reader to a worker. The
// FrameTrace (traced replays only) travels with the record and is only
// ever touched by the goroutine currently holding it.
type job struct {
	idx int
	raw *trace.RawRecord
	ft  *tracing.FrameTrace
}

// scored is a record after scoring: its header, payload and stateless
// verdict. The record and frame live in the scored batch itself, the
// payload in data, so building them costs no allocation; Result.Record
// and Result.Frame point here. The raw record is back in its pool by
// now.
type scored struct {
	idx        int
	ft         *tracing.FrameTrace
	rec        trace.Record // Trace stays empty
	data       [8]byte      // backs rec.Data and frame.Data
	frame      canbus.ExtendedFrame
	det        core.Detection
	forensics  ids.Forensics
	extractErr error
}

// jobBatch is a run of consecutive records on its way from the reader
// to a worker. It is also the pool task: run is the replay's scoring
// function, made once per Run, so submitting a batch needs no closure.
type jobBatch struct {
	run  func(*jobBatch)
	jobs []job
}

// scoredBatch is a jobBatch after scoring, on its way to the
// reordering stage.
type scoredBatch struct {
	items []scored
}

// processBatch is the stateless hot path one pool task runs: copy each
// raw record's header and payload into the scored batch, extract and
// score it from its packed codes, return the raw record to its pool,
// then hand the whole scored batch to the reordering stage in one
// channel operation. It parks on this replay's bounded out channel and
// is released by abandon — releasing the batch on that path — so a
// stalled replay never wedges a shared pool beyond its in-flight tasks
// and an abandoned batch never strands a buffer.
func (p *Replayer) processBatch(b *jobBatch, out chan<- *scoredBatch, abandon <-chan struct{}) {
	m := p.metrics
	rc := p.rc
	start := time.Now()
	sb := rc.getScoredBatch()
	for _, j := range b.jobs {
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		sp := j.ft.StartSpan("pipeline.decode")
		sb.items = append(sb.items, scored{idx: j.idx, ft: j.ft})
		s := &sb.items[len(sb.items)-1]
		raw := j.raw
		s.rec = trace.Record{ECUIndex: raw.ECUIndex, TimeSec: raw.TimeSec, FrameID: raw.FrameID, Data: append(s.data[:0], raw.Data...)}
		s.frame = canbus.ExtendedFrame{ID: s.rec.FrameID, Data: s.rec.Data}
		codes := raw.Samples()
		if j.ft != nil {
			j.ft.DecisionSlot().Samples = widen(codes)
		}
		sp.End()
		if m != nil {
			m.DecodeSeconds.Observe(time.Since(t0).Seconds())
		}
		s.det, s.forensics, s.extractErr = p.mon.VoltageVerdictCodes(&s.frame, codes, j.ft)
		rc.putRaw(raw)
		if s.extractErr != nil {
			p.extractFailures.Add(1)
			if m != nil {
				m.ExtractFailures.Inc()
			}
		}
		// Per-record, not per-batch: the stall watchdog reads this as
		// its liveness signal, and a large batch mid-scoring must look
		// like progress, not a wedge.
		p.recordsScored.Add(1)
	}
	rc.putJobBatch(b)
	// One busy-time add per batch: the whole loop is work, and a single
	// atomic add amortises the accounting the way the batch amortises
	// the channel operations.
	p.busyNanos.Add(int64(time.Since(start)))
	select {
	case out <- sb:
	case <-abandon:
		rc.putScoredBatch(sb)
	}
}

// Run replays the source to completion (or first error). Results
// reach the sink in record order. Run may be called once per
// Replayer: the composite monitor it wraps is stateful, so a second
// replay needs a fresh monitor and replayer.
func (p *Replayer) Run(src Source, fn Sink) error {
	if p.ran.Swap(true) {
		return errors.New("pipeline: Run called twice on one Replayer")
	}
	if fn == nil {
		fn = func(Result) error { return nil }
	}
	p.startNanos.Store(time.Now().UnixNano())
	defer func() {
		p.wallNanos.Store(time.Now().UnixNano() - p.startNanos.Load())
	}()

	rc := p.rc
	jobs := make(chan *jobBatch, p.depth)
	out := make(chan *scoredBatch, p.depth)
	// abandon is closed only when the sink fails and stage 3 stops
	// draining; it unblocks upstream sends that would otherwise hang.
	// A source error does NOT close it — the records already read
	// drain through normally, so the sink sees the complete prefix
	// before the error surfaces.
	abandon := make(chan struct{})
	var abortOnce sync.Once
	abort := func() {
		abortOnce.Do(func() { close(abandon) })
	}
	// The error slot is mutex-guarded rather than Once-guarded: the
	// watchdog goroutine can set it at any moment — including while
	// stage 3 is returning — so every read needs the same lock.
	var errMu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}

	// Slow-sink watchdog: while records are pending (read but not yet
	// delivered), the pipeline must make progress every StallTimeout
	// or the replay aborts. Progress is sink deliveries plus worker
	// scorings — the sum is monotonic, and counting scoring keeps a
	// large batch mid-flight from reading as a wedge while still
	// catching a stuck sink: workers block once the bounded queues
	// fill and the sum stops moving. Closing abandon unwedges every
	// stage; stage 3 checks the flag between sink calls.
	var stalled atomic.Bool
	if p.stall > 0 {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			interval := p.stall / 8
			if interval < time.Millisecond {
				interval = time.Millisecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			last := p.recordsOut.Load() + p.recordsScored.Load()
			lastProgress := time.Now()
			for {
				select {
				case <-stopWatch:
					return
				case <-tick.C:
				}
				cur := p.recordsOut.Load() + p.recordsScored.Load()
				if cur != last {
					last, lastProgress = cur, time.Now()
					continue
				}
				if p.recordsIn.Load() > p.recordsOut.Load() && time.Since(lastProgress) >= p.stall {
					stalled.Store(true)
					setErr(ErrStalled)
					abort()
					return
				}
			}
		}()
	}

	// Stage 1: the reader refills pooled raw records, tags them with
	// their stream index and accumulates them into batches. The samples
	// stay packed, keeping the serial stage as thin as the format
	// allows. A batch ships when it is full or when the source has
	// nothing more buffered — the next read may block, and the records
	// in hand must not wait for it. A source error does not abandon the
	// replay: the partial batch already read is flushed so the sink sees
	// the complete prefix before the error surfaces.
	go func() {
		defer close(jobs)
		batch := rc.getJobBatch()
		// flush hands the accumulated batch to stage 2, returning false
		// when the replay has been abandoned (the batch is released, not
		// leaked). The empty batch is returned to the pool, never sent.
		flush := func() bool {
			if len(batch.jobs) == 0 {
				return true
			}
			// Once abandoned, the reader stops even though the
			// dispatcher, draining, would take every batch it sends.
			select {
			case <-abandon:
			default:
				select {
				case jobs <- batch:
					batch = rc.getJobBatch()
					return true
				case <-abandon:
				}
			}
			rc.releaseJobs(batch)
			batch = nil
			return false
		}
		for idx := 0; ; idx++ {
			j := job{idx: idx}
			var sp *tracing.Span
			if p.recorder != nil {
				// TraceIDs are the 1-based record index: deterministic, so
				// two replays of one capture produce identical forensics.
				j.ft = tracing.NewFrameTrace(tracing.TraceID(idx) + 1)
				sp = j.ft.StartSpan("pipeline.read")
			}
			j.raw = rc.getRaw()
			if err := src.NextRawInto(j.raw); err != nil {
				rc.putRaw(j.raw)
				if !errors.Is(err, io.EOF) {
					setErr(err)
				}
				flush()
				if batch != nil {
					rc.putJobBatch(batch)
				}
				return
			}
			sp.End()
			p.recordsIn.Add(1)
			if m := p.metrics; m != nil {
				m.RecordsIn.Inc()
			}
			batch.jobs = append(batch.jobs, j)
			if len(batch.jobs) >= p.batch || src.Buffered() == 0 {
				if !flush() {
					return
				}
			}
		}
	}()

	// Stage 2: the worker pool runs the stateless hot path. With no
	// shared pool configured the replay owns a private one, so the
	// single-replay shape (N dedicated goroutines draining jobs) is
	// preserved; in fleet mode the dispatcher below feeds this
	// replay's jobs into the shared pool, where they interleave with
	// other buses' work. Either way a per-replay WaitGroup tracks the
	// in-flight tasks so out closes exactly when the last one lands.
	pool := p.pool
	private := pool == nil
	if private {
		pool = NewPool(p.workers)
	}
	// Run must not return before the dispatcher stops submitting: a
	// private pool is closed here, and a shared pool may be closed by
	// its owner the moment every replay using it has returned.
	dispatcherDone := make(chan struct{})
	defer func() {
		<-dispatcherDone
		if private {
			pool.Close()
		}
	}()
	var wg sync.WaitGroup
	// score is the task every batch of this replay carries into the
	// pool, made once here so a submission allocates nothing.
	score := func(b *jobBatch) {
		p.processBatch(b, out, abandon)
		wg.Done()
	}
	go func() {
		defer close(dispatcherDone)
		for b := range jobs {
			wg.Add(1)
			b.run = score
			if !pool.submit(b, abandon) {
				// The submission was abandoned: the batch never reached a
				// worker, so its buffers (and the worker slot the Add
				// reserved) are released here, then the channel drains so
				// batches the reader already queued are released too.
				wg.Done()
				rc.releaseJobs(b)
				for b := range jobs {
					rc.releaseJobs(b)
				}
				break
			}
		}
		wg.Wait()
		close(out)
	}()

	// Stage 3: re-sequence by index, then run the stateful detectors
	// in arrival order. Every batch holds a contiguous run of indices
	// (the reader cuts them that way and workers keep their order), so
	// batches park in pending under their first index and are
	// delivered whole. pending is bounded by the batches in flight
	// (≤ 2×Depth + workers), so memory stays flat even when one slow
	// batch holds up its successors. On an aborted replay the deferred
	// cleanup releases the batch being delivered, drains out (the
	// dispatcher closes it once the workers unwedge via abandon) and
	// releases every pending batch, so no pooled buffer is stranded on
	// any exit path.
	next := 0
	m := p.metrics
	pending := make(map[int]*scoredBatch, 2*p.depth+p.workers)
	pendingRecords := 0
	var cur *scoredBatch
	defer func() {
		if cur != nil {
			rc.putScoredBatch(cur)
		}
		for sb := range out {
			rc.putScoredBatch(sb)
		}
		for idx, sb := range pending {
			rc.putScoredBatch(sb)
			delete(pending, idx)
		}
	}()
	// deliver runs the stateful detectors over one scored record and
	// hands it to the sink; false means the replay must stop (sink
	// error or stall).
	deliver := func(s *scored) bool {
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		var state ids.SequenceState
		if s.ft != nil {
			// Snapshot the stateful detectors BEFORE Sequence mutates
			// them: the decision record must hold the state the verdict
			// was judged against.
			state = p.mon.StateFor(s.frame.ID)
		}
		sp := s.ft.StartSpan("pipeline.sequence")
		verdict := p.mon.Sequence(&s.frame, s.rec.TimeSec, s.det, s.extractErr)
		sp.End()
		p.recordsOut.Add(1)
		if p.recorder != nil {
			p.recorder.Record(buildDecision(next, s, verdict, state))
		}
		err := fn(Result{Index: next, Record: &s.rec, Frame: &s.frame, Verdict: verdict, Trace: s.ft})
		if m != nil {
			m.SequenceSeconds.Observe(time.Since(t0).Seconds())
			m.RecordsOut.Inc()
		}
		if err != nil {
			setErr(err)
			abort()
			return false
		}
		next++
		// The watchdog may have fired while this sink call was in
		// flight; stop delivering rather than racing the draining
		// stages.
		return !stalled.Load()
	}
	for sb := range out {
		pending[sb.items[0].idx] = sb
		pendingRecords += len(sb.items)
		for {
			b, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			pendingRecords -= len(b.items)
			cur = b
			for i := range cur.items {
				if !deliver(&cur.items[i]) {
					return getErr()
				}
			}
			rc.putScoredBatch(cur)
			cur = nil
		}
		if m != nil {
			m.QueueDepth.Set(int64(pendingRecords))
			m.PoolOutstanding.Set(rc.outstanding.Load())
		}
	}
	if m != nil {
		m.QueueDepth.Set(0)
		m.PoolOutstanding.Set(rc.outstanding.Load())
	}
	return getErr()
}

// Replay is the one-shot convenience wrapper: build a replayer, run
// it, return the final stats.
func Replay(src Source, mon *ids.Composite, cfg Config, fn Sink) (Stats, error) {
	p, err := New(mon, cfg)
	if err != nil {
		return Stats{}, err
	}
	err = p.Run(src, fn)
	return p.Stats(), err
}

// Sequential replays the source on the calling goroutine, scoring each
// record from its packed codes and sequencing it in the same call —
// the reference path the pipeline must match bit-for-bit, and the
// baseline its benchmarks compare against. Each Result gets a fresh
// Record (header and payload; no samples, as in Run), so a sink may
// keep what a Result points to. It fills the same Stats (WorkerBusy
// covers the extract+score step so utilisation remains comparable).
func Sequential(src Source, mon *ids.Composite, fn Sink) (Stats, error) {
	if mon == nil {
		return Stats{}, errors.New("pipeline: nil monitor")
	}
	if fn == nil {
		fn = func(Result) error { return nil }
	}
	stats := Stats{Workers: 1}
	start := time.Now()
	var raw trace.RawRecord
	for idx := 0; ; idx++ {
		err := src.NextRawInto(&raw)
		if errors.Is(err, io.EOF) {
			stats.WallTime = time.Since(start)
			return stats, nil
		}
		if err != nil {
			stats.WallTime = time.Since(start)
			return stats, err
		}
		stats.RecordsIn++
		rec := &trace.Record{ECUIndex: raw.ECUIndex, TimeSec: raw.TimeSec, FrameID: raw.FrameID, Data: append([]byte(nil), raw.Data...)}
		frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
		t0 := time.Now()
		det, _, extractErr := mon.VoltageVerdictCodes(frame, raw.Samples(), nil)
		stats.WorkerBusy += time.Since(t0)
		if extractErr != nil {
			stats.ExtractFailures++
		}
		verdict := mon.Sequence(frame, rec.TimeSec, det, extractErr)
		stats.RecordsOut++
		if err := fn(Result{Index: idx, Record: rec, Frame: frame, Verdict: verdict}); err != nil {
			stats.WallTime = time.Since(start)
			return stats, err
		}
	}
}
