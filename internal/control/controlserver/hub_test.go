package controlserver

import (
	"fmt"
	"testing"

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
