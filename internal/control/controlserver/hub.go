package controlserver

import (
	"sync"
	"time"

	"vprofile/internal/control/controlapi"
	"vprofile/internal/obs"
)

// eventHub is the daemon's alarm fan-out: a bounded sequence-numbered
// ring every published event lands in, read by any number of
// long-polling subscribers through a cursor (controlapi.PathEvents).
// Slow or absent clients never apply backpressure to the data plane —
// a publisher only overwrites the oldest slot — and a client that
// falls behind learns exactly how many events it lost (Dropped)
// instead of silently missing them.
type eventHub struct {
	mu   sync.Mutex
	ring []controlapi.EventRecord // event seq lives at ring[seq % len(ring)]
	next uint64                   // sequence number of the next event published
	wake chan struct{}
}

func newEventHub(capacity int) *eventHub {
	if capacity <= 0 {
		capacity = 1
	}
	return &eventHub{
		ring: make([]controlapi.EventRecord, capacity),
		wake: make(chan struct{}),
	}
}

// start is the sequence number of the oldest retained event.
func (h *eventHub) start() uint64 {
	if n := uint64(len(h.ring)); h.next > n {
		return h.next - n
	}
	return 0
}

// Publish stores one event, overwriting the oldest once the ring is
// full, and wakes every waiting poller.
func (h *eventHub) Publish(e obs.Event) {
	h.mu.Lock()
	h.ring[h.next%uint64(len(h.ring))] = controlapi.EventRecord{Seq: h.next, Event: e}
	h.next++
	close(h.wake)
	h.wake = make(chan struct{})
	h.mu.Unlock()
}

// since returns retained events with Seq >= after (capped at max),
// the cursor for the following poll, and how many requested events
// had already rotated out of the ring.
func (h *eventHub) since(after uint64, max int) (events []controlapi.EventRecord, next uint64, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if start := h.start(); after < start {
		dropped = start - after
		after = start
	}
	if after >= h.next {
		return nil, h.next, dropped
	}
	n := h.next - after
	if max > 0 && n > uint64(max) {
		n = uint64(max)
	}
	events = make([]controlapi.EventRecord, n)
	for i := range events {
		events[i] = h.ring[(after+uint64(i))%uint64(len(h.ring))]
	}
	return events, after + n, dropped
}

// waiter returns the channel closed by the next Publish.
func (h *eventHub) waiter() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wake
}

// Poll is the long-poll read: it returns immediately when events past
// the cursor exist, otherwise blocks up to wait for one to arrive.
func (h *eventHub) Poll(after uint64, max int, wait time.Duration) controlapi.EventsResponse {
	deadline := time.Now().Add(wait)
	for {
		w := h.waiter()
		events, next, dropped := h.since(after, max)
		if len(events) > 0 || wait <= 0 {
			return controlapi.EventsResponse{Events: events, Next: next, Dropped: dropped}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return controlapi.EventsResponse{Events: events, Next: next, Dropped: dropped}
		}
		t := time.NewTimer(remain)
		select {
		case <-w:
		case <-t.C:
		}
		t.Stop()
	}
}
