package controlserver

import (
	"slices"
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
	// parked holds the wake channel of every poller waiting for the
	// next Publish.
	parked []chan struct{}
}

// A parked poller waits on a one-slot wake channel and a timer, both
// pooled so a long poll that waits allocates nothing but the events it
// returns.
var (
	wakes  = sync.Pool{New: func() any { return make(chan struct{}, 1) }}
	timers sync.Pool
)

func newEventHub(capacity int) *eventHub {
	if capacity <= 0 {
		capacity = 1
	}
	return &eventHub{ring: make([]controlapi.EventRecord, capacity)}
}

// start is the sequence number of the oldest retained event.
func (h *eventHub) start() uint64 {
	if n := uint64(len(h.ring)); h.next > n {
		return h.next - n
	}
	return 0
}

// Publish stores one event, overwriting the oldest once the ring is
// full, and wakes every parked poller.
func (h *eventHub) Publish(e obs.Event) {
	h.mu.Lock()
	h.ring[h.next%uint64(len(h.ring))] = controlapi.EventRecord{Seq: h.next, Event: e}
	h.next++
	for i, w := range h.parked {
		select {
		case w <- struct{}{}:
		default: // already woken
		}
		h.parked[i] = nil
	}
	h.parked = h.parked[:0]
	h.mu.Unlock()
}

// since returns retained events with Seq >= after (capped at max),
// the cursor for the following poll, and how many requested events
// had already rotated out of the ring. With none to return and a
// non-nil wake, it parks wake for the next Publish, atomically with
// the check, so no event slips in between.
func (h *eventHub) since(after uint64, max int, wake chan struct{}) (events []controlapi.EventRecord, next uint64, dropped uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if start := h.start(); after < start {
		dropped = start - after
		after = start
	}
	if after >= h.next {
		if wake != nil {
			h.parked = append(h.parked, wake)
		}
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

// unpark withdraws a poller whose wait timed out, and empties its wake
// channel: a Publish may have woken it in the meantime.
func (h *eventHub) unpark(wake chan struct{}) {
	h.mu.Lock()
	if i := slices.Index(h.parked, wake); i >= 0 {
		h.parked = slices.Delete(h.parked, i, i+1)
	}
	h.mu.Unlock()
	select {
	case <-wake:
	default:
	}
}

// Poll is the long-poll read: it returns immediately when events past
// the cursor exist, otherwise blocks up to wait for one to arrive.
func (h *eventHub) Poll(after uint64, max int, wait time.Duration) controlapi.EventsResponse {
	if wait <= 0 {
		events, next, dropped := h.since(after, max, nil)
		return controlapi.EventsResponse{Events: events, Next: next, Dropped: dropped}
	}
	deadline := time.Now().Add(wait)
	wake := wakes.Get().(chan struct{})
	defer wakes.Put(wake)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timers.Put(timer)
		}
	}()
	for {
		events, next, dropped := h.since(after, max, wake)
		remain := time.Until(deadline)
		if len(events) > 0 || remain <= 0 {
			if len(events) == 0 {
				h.unpark(wake)
			}
			return controlapi.EventsResponse{Events: events, Next: next, Dropped: dropped}
		}
		if timer == nil {
			timer, _ = timers.Get().(*time.Timer)
		}
		if timer == nil {
			timer = time.NewTimer(remain)
		} else {
			timer.Reset(remain)
		}
		select {
		case <-wake:
			// Stop and drain, so the pooled timer holds no stale
			// tick. Under the pre-Go 1.23 timer semantics go.mod selects,
			// a tick already being sent can still land after a
			// non-blocking drain; the next wait then wakes early and
			// loops, since the deadline, not the timer, ends the poll.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			h.unpark(wake)
		}
	}
}
