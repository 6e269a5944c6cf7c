package pipeline

import "vprofile/internal/ids"

// RunTapped replays src on a one-worker pool and returns the size of
// every batch the reader cut, in stream order, alongside Run's error.
func RunTapped(mon *ids.Composite, batch int, src Source, fn Sink) ([]int, error) {
	pool := NewPool(1)
	defer pool.Close()
	p, err := New(mon, Config{Pool: pool, Batch: batch})
	if err != nil {
		return nil, err
	}
	var sizes []int
	p.taps = &taps{cut: func(n int) { sizes = append(sizes, n) }, scoring: func(int) {}}
	err = p.Run(src, fn)
	return sizes, err
}

// Tap installs test hooks on a replayer before its Run: scoring sees
// +1 when a batch starts scoring and −1 when it finishes, on whichever
// goroutine scores it; onWorkers makes the reader treat every slot as
// held, so every batch is scored on a pool worker.
func Tap(p *Replayer, scoring func(delta int), onWorkers bool) {
	p.taps = &taps{cut: func(int) {}, scoring: scoring, noInline: onWorkers}
}
