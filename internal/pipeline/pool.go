package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the extraction/scoring worker pool every Replayer scores on.
// It lives apart from the Replayer so several concurrent replays share
// one bounded set of goroutines instead of each spawning its own
// (fleet mode: N buses, one pool).
//
// Sharing never changes verdicts: the hot path a pool runs is
// stateless (VoltageVerdict touches no mutable detector state), and
// each replay re-sequences its own results by record index before the
// stateful stage — which worker ran which frame, or which session a
// worker served last, is invisible in the output.
//
// Fail isolation falls out of the same structure: a task belonging to
// a stalled or aborted replay parks on that replay's bounded output
// channel and is released the moment the replay's abandon channel
// closes, so one bus's failure occupies at most its in-flight tasks
// for an instant rather than wedging the shared pool.
type Pool struct {
	tasks   chan *jobBatch
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
	p := &Pool{tasks: make(chan *jobBatch), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for b := range p.tasks {
				b.run(b)
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// submit blocks until a worker accepts the batch, or until abandon
// closes (the submitting replay aborted); it reports whether the batch
// was accepted. The batch is the task — it carries its replay's
// scoring function — so a submission allocates nothing. The task channel is unbuffered on
// purpose: backpressure reaches the submitting replay's reader
// immediately instead of queueing unboundedly in the pool.
func (p *Pool) submit(b *jobBatch, abandon <-chan struct{}) bool {
	select {
	case p.tasks <- b:
		return true
	case <-abandon:
		return false
	}
}

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
