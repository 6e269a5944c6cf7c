// Package pipeline replays capture files through the composite IDS
// concurrently while producing verdicts bit-for-bit identical to the
// sequential path.
//
// A replay has three steps:
//
//  1. read: Run's own goroutine pulls records off the capture stream in
//     order and tags each with its index — kept deliberately thin (raw
//     records, sample codes still packed, refilled into pooled
//     buffers) because stream decoding is the one inherently serial
//     step;
//  2. score: the stateless hot path — edge-set extraction and vProfile
//     scoring straight from each record's packed ADC codes
//     (Composite.VoltageVerdictCodes, with a nil trace on an untraced
//     replay) — runs under one of the scoring slots of a Pool, which
//     several replays may share. A batch cut because the source ran
//     dry is scored by the reader itself when a slot is free; any other
//     batch goes to one of the pool's workers, which parks it, scored,
//     and wakes the replay's delivery goroutine;
//  3. the delivery turn: whichever of the replay's two goroutines —
//     Run's, after scoring a dry batch itself, or its delivery
//     goroutine, woken by a worker — holds the turn runs the stateful
//     detectors (period monitor, transport reassembly) via
//     Composite.Sequence, the flight recorder and the sink for every
//     parked batch that continues the record stream.
//
// So a frame that arrives on a quiet live feed is read, scored and
// delivered without leaving its reader, while a saturated replay reads
// on as its delivery goroutine delivers. Pool workers never run a
// sink: a slow sink holds its own replay's goroutines, not capacity the
// other replays share.
//
// Batches hold up to Config.Batch records (default 64), so when records
// arrive faster than they are scored — a file, or a saturated socket —
// pool submissions and slot handoffs amortise over many frames. A
// batch is an upper bound, not a quota: the reader cuts what it holds
// as soon as its source has nothing more buffered (Source.Buffered),
// before a read that may block, so on a live feed a frame's verdict
// never waits for later frames to arrive. Handing a partial batch on
// allocates nothing. Batching changes only the transport granularity:
// records keep their stream indices and the turn delivers strictly in
// index order, so verdicts remain bit-identical to the sequential path
// at any batch size, any flush pattern, and whichever goroutines score
// and deliver.
//
// A replay holds a bounded number of batches between read and delivery
// (nine per pool slot), so a slow sink backpressures the reader instead
// of ballooning memory. The first
// error from any step stops the whole replay cleanly, and an aborted
// replay stops a source that can be stopped, so a reader blocked on a
// live transport returns. Per-stage counters are readable at any time
// through Stats.
package pipeline

import (
	"errors"
	"io"
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
// large enough to amortise pool and turn synchronisation while records
// are waiting, small enough that a batch stays resident in cache
// through scoring.
const DefaultBatch = 64

// inFlightPerSlot bounds how many batches a replay may hold between
// read and delivery, per slot of its pool.
const inFlightPerSlot = 9

// Config parameterises a replay.
type Config struct {
	// Pool scores the replay's batches; it is required. Several
	// concurrent replays (the buses of a fleet) share one and contend
	// for its bounded set of scoring slots. The pool must outlive the
	// replay; the replay does not close it.
	Pool *Pool
	// Batch is the most records the reader cuts into one batch — one
	// pool submission, one slot and one turn handoff; zero means
	// DefaultBatch. It is an upper bound: the reader cuts a partial
	// batch whenever its source has nothing buffered, so a live feed
	// gets a verdict per frame as it arrives at any batch size, and a
	// batch of one buys no latency, only more handoffs. Verdicts and
	// their order are identical at every batch size.
	Batch int
	// Metrics, when non-nil, makes the pipeline publish per-stage
	// counters, latency histograms and the parked-records gauge (see
	// NewMetrics). Instrumentation is atomic-only on the hot path and
	// never changes verdicts or their order.
	Metrics *Metrics
	// Recorder, when non-nil, turns on per-frame tracing and flight
	// recording: every record gets a deterministic TraceID and a span
	// per pipeline stage, and its full decision context — raw
	// samples, edge set, per-cluster distances, detector state — is
	// pushed into the recorder's ring, where alarms freeze forensic
	// bundles. Tracing never changes verdicts or their order; nil
	// keeps the replay on the uninstrumented fast path.
	Recorder *tracing.Recorder
	// StallTimeout arms the slow-sink watchdog: if the replay makes no
	// progress — no record scored and no verdict delivered to the sink
	// — for this long while records are pending, the replay aborts
	// with ErrStalled instead of sitting wedged behind its bounded
	// in-flight window. Scoring counts as progress so that a large
	// Batch being worked on does not read as a stall; a wedged sink
	// still fires the watchdog because the reader runs out of in-flight
	// batches and all progress stops. The watchdog stops the source and
	// releases every batch not being delivered; a sink call that never
	// returns holds the goroutine delivering it — Run's or the replay's
	// delivery goroutine, never a pool worker — and Run returns once
	// that call does. Zero disables.
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

// Sink receives results. Calls are serialised and in record order, but
// may come from either of the replay's goroutines — Run's own or its
// delivery goroutine, whichever holds the delivery turn — so a sink must
// not rely on goroutine identity. Pool workers never call it, so a slow
// sink slows only its own replay. A non-nil error stops the replay. A
// nil Sink discards results (useful for benchmarks).
type Sink func(Result) error

// Stats is a snapshot of the pipeline's per-stage counters. It may be
// taken while the replay is still running.
type Stats struct {
	// Workers is the size of the pool the replay ran on.
	Workers int
	// RecordsIn counts records the reader stage pulled off the
	// source; RecordsOut counts verdicts delivered to the sink.
	RecordsIn  int64
	RecordsOut int64
	// ExtractFailures counts records whose trace would not
	// preprocess (they still produce a Result, with ExtractErr set).
	ExtractFailures int64
	// WallTime is the elapsed replay time; WorkerBusy is the summed
	// time spent extracting and scoring, on workers and on the reader.
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
	pool     *Pool
	workers  int
	batch    int
	window   int // most batches between read and delivery
	metrics  *Metrics
	recorder *tracing.Recorder
	stall    time.Duration

	// rc is the replay's buffer accounting.
	rc *recycler
	// taps lets the package's tests watch batch cuts and scoring; nil
	// otherwise.
	taps *taps

	// The state of the one Run.
	src Source
	fn  Sink
	// tokens holds one entry per batch between read and delivery.
	tokens chan struct{}
	// inflight counts the batches not yet delivered or released: Run
	// returns only once it is zero.
	inflight sync.WaitGroup
	// The delivery turn: scored batches park in pending under their
	// first record index, parked counts their records, and whichever
	// of Run's goroutine and the replay's delivery goroutine holds the
	// turn (busy) delivers from next on. dead means the replay aborted
	// and nothing more is delivered.
	mu      sync.Mutex
	busy    bool
	dead    bool
	next    int
	pending map[int]*scoredBatch
	parked  int
	// landed is the doorbell a pool worker rings after parking a
	// batch, waking the replay's delivery goroutine.
	landed chan struct{}
	// abandon is closed by abort. A source error does NOT close it —
	// the records already read drain through normally, so the sink
	// sees the complete prefix before the error surfaces.
	abandon   chan struct{}
	abortOnce sync.Once
	// The error slot is mutex-guarded rather than Once-guarded: the
	// watchdog goroutine can set it at any moment — including while
	// Run is returning — so every read needs the same lock.
	errMu    sync.Mutex
	firstErr error

	ran             atomic.Bool
	recordsIn       atomic.Int64
	recordsOut      atomic.Int64
	recordsScored   atomic.Int64
	extractFailures atomic.Int64
	busyNanos       atomic.Int64
	startNanos      atomic.Int64
	wallNanos       atomic.Int64
}

// taps are the package tests' hooks into a replay.
type taps struct {
	cut      func(n int)     // the reader cut a batch of n records, in stream order
	scoring  func(delta int) // a batch started (+1) or finished (−1) scoring
	noInline bool            // the reader never scores: every batch goes to a worker
}

// New builds a replayer around a composite monitor, scoring on
// cfg.Pool. The monitor must not be used by anyone else while Run is
// in flight.
func New(mon *ids.Composite, cfg Config) (*Replayer, error) {
	if mon == nil {
		return nil, errors.New("pipeline: nil monitor")
	}
	if cfg.Pool == nil {
		return nil, errors.New("pipeline: no worker pool")
	}
	workers := cfg.Pool.Workers()
	batch := cfg.Batch
	if batch == 0 {
		batch = DefaultBatch
	}
	if batch < 1 {
		batch = 1
	}
	return &Replayer{
		mon: mon, pool: cfg.Pool, workers: workers, batch: batch, window: inFlightPerSlot * workers,
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

// job is a record travelling from the reader to scoring. The
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

// jobBatch is a run of consecutive records cut by the reader. It is
// also the pool task: it names its replay, so submitting a batch needs
// no closure.
type jobBatch struct {
	r    *Replayer
	jobs []job
}

// scoredBatch is a jobBatch after scoring, on its way to delivery.
type scoredBatch struct {
	items []scored
}

// Run replays the source to completion (or first error). Results
// reach the sink in record order. Run may be called once per Replayer:
// the composite monitor it wraps is stateful, so a second replay needs
// a fresh monitor and replayer.
func (p *Replayer) Run(src Source, fn Sink) error {
	if p.ran.Swap(true) {
		return errors.New("pipeline: Run called twice on one Replayer")
	}
	if fn == nil {
		fn = func(Result) error { return nil }
	}
	p.src, p.fn = src, fn
	p.tokens = make(chan struct{}, p.window)
	p.abandon = make(chan struct{})
	p.landed = make(chan struct{}, 1)
	p.pending = make(map[int]*scoredBatch, p.window)
	p.startNanos.Store(time.Now().UnixNano())
	defer func() {
		p.wallNanos.Store(time.Now().UnixNano() - p.startNanos.Load())
	}()
	if p.stall > 0 {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go p.watch(stopWatch)
	}
	stopDelivery, delivered := make(chan struct{}), make(chan struct{})
	go p.deliverLanded(stopDelivery, delivered)

	// The reader refills pooled raw records, tags them with their
	// stream index and accumulates them into batches. The samples stay
	// packed, keeping the serial step as thin as the format allows. A
	// batch is cut when it is full or when the source has nothing more
	// buffered — the next read may block, and the records in hand must
	// not wait for it. A source error does not abandon the replay: the
	// partial batch already read is shipped so the sink sees the
	// complete prefix before the error surfaces.
	rc := p.rc
	batch := rc.getJobBatch()
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
				p.setErr(err)
			}
			// Nothing more will be read, so the reader may as well
			// score the tail itself.
			if len(batch.jobs) > 0 {
				p.ship(batch, true)
			} else {
				rc.putJobBatch(batch)
			}
			break
		}
		sp.End()
		p.recordsIn.Add(1)
		if m := p.metrics; m != nil {
			m.RecordsIn.Inc()
		}
		batch.jobs = append(batch.jobs, j)
		dry := src.Buffered() == 0
		if dry || len(batch.jobs) >= p.batch {
			if !p.ship(batch, dry) {
				break
			}
			batch = rc.getJobBatch()
		}
	}
	p.inflight.Wait()
	close(stopDelivery)
	<-delivered
	if m := p.metrics; m != nil {
		m.QueueDepth.Set(0)
		m.PoolOutstanding.Set(rc.outstanding.Load())
	}
	return p.err()
}

// ship hands a cut batch on. It takes one of the replay's in-flight
// tokens, then scores the batch here when the source ran dry and the
// pool has a free slot — and delivers it too when the delivery turn is
// free — or gives it to a pool worker. It reports whether the replay is
// still running.
func (p *Replayer) ship(b *jobBatch, dry bool) bool {
	if p.taps != nil {
		p.taps.cut(len(b.jobs))
	}
	select {
	case p.tokens <- struct{}{}:
	case <-p.abandon:
		p.rc.releaseJobs(b)
		return false
	}
	p.inflight.Add(1)
	if dry && (p.taps == nil || !p.taps.noInline) && p.pool.tryAcquire() {
		sb := p.score(b)
		p.pool.release()
		p.park(sb)
		p.deliverTurn()
		return !p.aborted()
	}
	b.r = p
	select {
	case p.pool.tasks <- b:
		return !p.aborted()
	case <-p.abandon:
		b.r = nil
		p.rc.releaseJobs(b)
		p.retire()
		return false
	}
}

// work is a batch's pool task: score it under one of the pool's slots,
// give the slot back, park the batch and wake the replay's delivery
// goroutine. A worker never delivers. A batch of an aborted replay is
// released unscored.
func (p *Replayer) work(b *jobBatch) {
	if p.aborted() {
		p.rc.releaseJobs(b)
		p.retire()
		return
	}
	p.pool.acquire()
	sb := p.score(b)
	p.pool.release()
	p.park(sb)
	select {
	case p.landed <- struct{}{}:
	default:
	}
}

// deliverLanded is the replay's delivery goroutine: each time a worker
// parks a batch it takes the delivery turn, unless Run holds it, and
// delivers what continues the record stream. It returns once stop
// closes, which Run does after every batch is delivered or released.
func (p *Replayer) deliverLanded(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-p.landed:
			p.deliverTurn()
		case <-stop:
			return
		}
	}
}

// score is the stateless hot path, run under a scoring slot: copy each
// raw record's header and payload into the scored batch, extract and
// score it from its packed codes, and return the raw record and the job
// batch to their pools.
func (p *Replayer) score(b *jobBatch) *scoredBatch {
	if p.taps != nil {
		p.taps.scoring(1)
	}
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
	// the handoffs.
	p.busyNanos.Add(int64(time.Since(start)))
	if p.taps != nil {
		p.taps.scoring(-1)
	}
	return sb
}

// park sets a scored batch aside under its first record index for
// whichever goroutine holds the delivery turn. Every batch holds a
// contiguous run of indices (the reader cuts them that way and scoring
// keeps their order), so a batch is delivered whole. pending is bounded
// by the replay's in-flight tokens, so memory stays flat even when one
// slow batch holds up its successors. A batch landing after an abort
// is released.
func (p *Replayer) park(sb *scoredBatch) {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		p.drop(sb)
		return
	}
	p.pending[sb.items[0].idx] = sb
	p.parked += len(sb.items)
	p.mu.Unlock()
}

// deliverTurn takes the delivery turn unless another goroutine holds
// it, delivers parked batches in record order for as long as the next
// one is parked, and gives the turn back. The holder checks for the
// next batch under the same lock a batch parks under, so a batch that
// parks while the turn is held is delivered by the holder.
func (p *Replayer) deliverTurn() {
	p.mu.Lock()
	if p.busy {
		p.mu.Unlock()
		return
	}
	p.busy = true
	for !p.dead {
		sb := p.pending[p.next]
		if sb == nil {
			break
		}
		delete(p.pending, p.next)
		p.parked -= len(sb.items)
		p.mu.Unlock()
		ok := p.deliverBatch(sb)
		p.mu.Lock()
		if !ok {
			p.dead = true
		}
	}
	if p.dead {
		p.dropPending()
	}
	p.busy = false
	if m := p.metrics; m != nil {
		m.QueueDepth.Set(int64(p.parked))
		m.PoolOutstanding.Set(p.rc.outstanding.Load())
	}
	p.mu.Unlock()
}

// deliverBatch delivers every record of a batch in order, then
// releases the batch; false means the replay must stop.
func (p *Replayer) deliverBatch(sb *scoredBatch) bool {
	ok := true
	for i := range sb.items {
		if ok = p.deliver(&sb.items[i]); !ok {
			break
		}
	}
	p.drop(sb)
	return ok
}

// deliver runs the stateful detectors over one scored record and hands
// it to the sink; false means the replay must stop (sink error, or an
// abort while the sink ran).
func (p *Replayer) deliver(s *scored) bool {
	m := p.metrics
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
	idx := p.next
	sp := s.ft.StartSpan("pipeline.sequence")
	verdict := p.mon.Sequence(&s.frame, s.rec.TimeSec, s.det, s.extractErr)
	sp.End()
	p.recordsOut.Add(1)
	if p.recorder != nil {
		p.recorder.Record(buildDecision(idx, s, verdict, state))
	}
	err := p.fn(Result{Index: idx, Record: &s.rec, Frame: &s.frame, Verdict: verdict, Trace: s.ft})
	if m != nil {
		m.SequenceSeconds.Observe(time.Since(t0).Seconds())
		m.RecordsOut.Inc()
	}
	if err != nil {
		p.setErr(err)
		p.abort()
		return false
	}
	p.next++
	// The watchdog may have fired while this sink call was in flight.
	return !p.aborted()
}

// drop releases a scored batch and its in-flight token.
func (p *Replayer) drop(sb *scoredBatch) {
	p.rc.putScoredBatch(sb)
	p.retire()
}

// retire gives back a batch's in-flight token once the batch is
// delivered or released. The receive never blocks, since the batch's
// token was sent before it went in flight, so it may run under the
// turn's lock.
func (p *Replayer) retire() {
	<-p.tokens
	p.inflight.Done()
}

// dropPending releases every parked batch. The caller holds the turn's
// lock.
func (p *Replayer) dropPending() {
	for idx, sb := range p.pending {
		delete(p.pending, idx)
		p.drop(sb)
	}
	p.parked = 0
}

// abort stops the replay after its first fatal error: it wakes a reader
// waiting for a token or a worker, releases the parked batches (a
// goroutine delivering releases its own when its sink call returns),
// and stops a source that can be stopped (engine.StreamSource), so a
// read blocked on a live transport returns instead of waiting for the
// peer to send again.
func (p *Replayer) abort() {
	p.abortOnce.Do(func() {
		close(p.abandon)
		p.mu.Lock()
		p.dead = true
		if !p.busy {
			p.dropPending()
		}
		p.mu.Unlock()
		if s, ok := p.src.(interface{ Stop() }); ok {
			s.Stop()
		}
	})
}

func (p *Replayer) aborted() bool {
	select {
	case <-p.abandon:
		return true
	default:
		return false
	}
}

func (p *Replayer) setErr(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

func (p *Replayer) err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// watch is the slow-sink watchdog: while records are pending (read but
// not yet delivered), the replay must make progress every StallTimeout
// or it aborts. Progress is sink deliveries plus scorings — the sum is
// monotonic, and counting scoring keeps a large batch mid-flight from
// reading as a wedge while still catching a stuck sink: the reader runs
// out of in-flight tokens and the sum stops moving.
func (p *Replayer) watch(stop <-chan struct{}) {
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
		case <-stop:
			return
		case <-tick.C:
		}
		cur := p.recordsOut.Load() + p.recordsScored.Load()
		if cur != last {
			last, lastProgress = cur, time.Now()
			continue
		}
		if p.recordsIn.Load() > p.recordsOut.Load() && time.Since(lastProgress) >= p.stall {
			p.setErr(ErrStalled)
			p.abort()
			return
		}
	}
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
