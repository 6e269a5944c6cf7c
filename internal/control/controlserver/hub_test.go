package controlserver

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vprofile/internal/obs"
)

// TestEventHubWrap pins the ring's cursor semantics across the point
// where it starts overwriting: a poll returns the retained events at
// or after the cursor (at most max), the cursor that follows them, and
// how many requested events had already been overwritten.
func TestEventHubWrap(t *testing.T) {
	const capacity = 4
	cases := []struct {
		published int
		after     uint64
		max       int
		first, n  int // Seq of the first event returned, count returned
		next      uint64
		dropped   uint64
	}{
		{published: 0, after: 0, max: 10, first: -1, n: 0, next: 0},
		{published: 3, after: 0, max: 10, first: 0, n: 3, next: 3},
		{published: 3, after: 1, max: 1, first: 1, n: 1, next: 2},
		{published: 4, after: 0, max: 10, first: 0, n: 4, next: 4},             // exactly full
		{published: 5, after: 0, max: 10, first: 1, n: 4, next: 5, dropped: 1}, // first overwrite
		{published: 5, after: 1, max: 10, first: 1, n: 4, next: 5},
		{published: 6, after: 3, max: 2, first: 3, n: 2, next: 5}, // slice straddles the wrap
		{published: 9, after: 2, max: 10, first: 5, n: 4, next: 9, dropped: 3},
		{published: 9, after: 7, max: 10, first: 7, n: 2, next: 9},
		{published: 9, after: 9, max: 10, first: -1, n: 0, next: 9},  // caught up
		{published: 9, after: 12, max: 10, first: -1, n: 0, next: 9}, // cursor past the head
		{published: 11, after: 0, max: 3, first: 7, n: 3, next: 10, dropped: 7},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("published=%d/after=%d/max=%d", tc.published, tc.after, tc.max), func(t *testing.T) {
			h := newEventHub(capacity)
			for i := 0; i < tc.published; i++ {
				h.Publish(obs.Event{Kind: obs.EventVoltage, Detail: fmt.Sprint(i)})
			}
			resp := h.Poll(tc.after, tc.max, 0)
			if len(resp.Events) != tc.n || resp.Next != tc.next || resp.Dropped != tc.dropped {
				t.Fatalf("got %d events, next %d, dropped %d; want %d, %d, %d",
					len(resp.Events), resp.Next, resp.Dropped, tc.n, tc.next, tc.dropped)
			}
			for i, rec := range resp.Events {
				seq := uint64(tc.first + i)
				if rec.Seq != seq || rec.Event.Detail != fmt.Sprint(seq) {
					t.Fatalf("event %d = seq %d %q, want seq %d", i, rec.Seq, rec.Event.Detail, seq)
				}
			}
		})
	}
}

// parkedPollers counts the pollers waiting on the hub.
func parkedPollers(h *eventHub) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.parked)
}

// TestEventHubPollWaitAllocs holds a long poll that waits and is
// woken to one allocation, the events it returns: its wake channel
// and timer are pooled, not made per wait. A poll that times out
// leaves no poller parked behind it.
func TestEventHubPollWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	h := newEventHub(8)
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		ev := obs.Event{Kind: obs.EventVoltage}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if parkedPollers(h) > 0 {
				h.Publish(ev)
			} else {
				runtime.Gosched()
			}
		}
	}()
	var cursor uint64
	woken := 0
	allocs := testing.AllocsPerRun(100, func() {
		resp := h.Poll(cursor, 1, time.Minute)
		if len(resp.Events) == 1 && resp.Events[0].Seq == cursor {
			woken++
		}
		cursor = resp.Next
	})
	close(stop)
	<-published
	if woken != 101 {
		t.Fatalf("%d of 101 polls were woken with the next event", woken)
	}
	if allocs > 1 {
		t.Fatalf("a woken Poll allocates %.0f times, want only its events slice", allocs)
	}

	if resp := h.Poll(cursor, 1, time.Millisecond); len(resp.Events) != 0 || resp.Next != cursor {
		t.Fatalf("timed-out poll returned %d events, next %d; want none at %d", len(resp.Events), resp.Next, cursor)
	}
	if n := parkedPollers(h); n != 0 {
		t.Fatalf("%d pollers still parked after a timed-out poll", n)
	}
}

// TestEventHubConcurrentPollers races long polls — some woken by a
// Publish, some timing out as one lands — against a publisher: every
// poller must read every event exactly once, in order, and none may
// stay parked once all have returned.
func TestEventHubConcurrentPollers(t *testing.T) {
	const pollers, events = 4, 500
	h := newEventHub(events)
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for cursor < events {
				resp := h.Poll(cursor, 7, time.Duration(p)*time.Millisecond)
				for _, rec := range resp.Events {
					if rec.Seq != cursor {
						t.Errorf("poller %d read seq %d, want %d", p, rec.Seq, cursor)
						return
					}
					cursor++
				}
				if resp.Next != cursor || resp.Dropped != 0 {
					t.Errorf("poller %d: next %d dropped %d at cursor %d", p, resp.Next, resp.Dropped, cursor)
					return
				}
			}
		}()
	}
	for i := 0; i < events; i++ {
		h.Publish(obs.Event{Kind: obs.EventVoltage})
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if n := parkedPollers(h); n != 0 {
		t.Fatalf("%d pollers still parked after every poll returned", n)
	}
}
