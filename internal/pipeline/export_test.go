package pipeline

import "vprofile/internal/ids"

// RunTapped replays src on a pool whose one worker is the calling
// goroutine and returns the size of every batch the reader shipped, in
// stream order, alongside Run's error.
func RunTapped(mon *ids.Composite, batch int, src Source, fn Sink) ([]int, error) {
	pool := &Pool{tasks: make(chan *jobBatch), workers: 1}
	p, err := New(mon, Config{Pool: pool, Batch: batch})
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(src, fn) }()
	// One dispatcher submits the batches in the order the reader cut
	// them.
	var sizes []int
	for {
		select {
		case b := <-pool.tasks:
			sizes = append(sizes, len(b.jobs))
			b.run(b)
		case err := <-done:
			return sizes, err
		}
	}
}
