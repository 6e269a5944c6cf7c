package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the scoring capacity every Replayer shares: Workers()
// scoring slots and as many worker goroutines. It lives apart from the
// Replayer so several concurrent replays share one bound instead of
// each spawning its own (fleet mode: N buses, one pool).
//
// Every batch is scored under a slot — on a worker, or on its replay's
// reader when the source ran dry and a slot was free — so however many
// replays share the pool, no more than Workers() batches are scored at
// once.
//
// Sharing never changes verdicts: the hot path scoring runs is
// stateless (VoltageVerdictCodes touches no mutable detector state),
// and each replay delivers its own results in record order on its own
// goroutines — which goroutine scored which frame, or which replay a
// worker served last, is invisible in the output.
//
// Fail isolation: a worker only scores. It parks the scored batch for
// its replay, wakes that replay's delivery goroutine and moves on; it
// never runs a replay's detectors or sink, so a slow or wedged sink
// holds its own replay's goroutines and no worker the other replays
// need. Nothing but a scoring slot ever makes a worker wait, so a task
// still queued when its replay aborts is soon taken and released
// unscored.
type Pool struct {
	tasks   chan *jobBatch
	slots   chan struct{}
	wg      sync.WaitGroup
	workers int
	closed  atomic.Bool
}

// NewPool starts a pool of the given size; zero or negative means
// runtime.GOMAXPROCS(0). Close it when every replay using it is done.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The task queue holds one batch per worker, so a reader hands a
	// batch on and reads the next while every worker is busy, instead
	// of waiting for one to come free.
	p := &Pool{tasks: make(chan *jobBatch, workers), slots: make(chan struct{}, workers), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for b := range p.tasks {
				b.r.work(b)
			}
		}()
	}
	return p
}

// Workers returns the pool size: its number of scoring slots and of
// worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// acquire takes a scoring slot, waiting for one to free up.
func (p *Pool) acquire() { p.slots <- struct{}{} }

// tryAcquire takes a scoring slot if one is free.
func (p *Pool) tryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// release gives a scoring slot back.
func (p *Pool) release() { <-p.slots }

// Close stops the workers after in-flight tasks finish. Submitting
// after Close panics (it is a lifecycle bug: the pool must outlive
// every replay that uses it); a second Close is a no-op.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.tasks)
	p.wg.Wait()
}
