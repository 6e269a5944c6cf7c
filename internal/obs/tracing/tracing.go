// Package tracing is the forensic half of the observability layer: a
// dependency-free per-frame span layer plus a ring-buffer flight
// recorder that keeps the full decision context of the last N frames
// and freezes it into a bundle whenever a detector raises an alarm.
//
// PR 2's metrics answer "how many frames alarmed"; this package
// answers "show me exactly why this frame alarmed" — the raw voltage
// samples, the extracted edge set, every cluster's Mahalanobis
// distance, the threshold and margin the verdict was judged against,
// and the sequence-detector state at the moment of the check, all
// annotated with timed spans for each pipeline stage the frame
// crossed.
//
// Everything here rides the instrumented path only: a replay without
// a Recorder allocates no FrameTrace, takes no clock readings and
// runs the exact fast path it always did.
package tracing

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock. Spans stamp it directly
// rather than going through time.Now, which reads the wall clock too
// — at several clock reads per frame the difference is measurable on
// the replay hot path, and spans only ever subtract timestamps.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// TraceID identifies one frame's journey through the pipeline. IDs
// are deterministic — derived from the record's stream index — so two
// replays of the same capture produce identical IDs and forensic
// output diffs clean.
type TraceID uint64

// String renders the id the way bundles and event logs carry it.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalJSON/UnmarshalJSON carry the id in its string form, so
// decision records hold the raw uint64 (no per-frame formatting on
// the hot path) while the JSONL output stays greppable hex.
func (id TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + id.String() + `"`), nil
}

func (id *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("tracing: bad trace id %q: %w", s, err)
	}
	*id = TraceID(v)
	return nil
}

// HexBytes is a byte slice that marshals as a lowercase hex string,
// so decision records can alias a frame's payload directly instead of
// hex-encoding it per frame on the hot path.
type HexBytes []byte

func (h HexBytes) MarshalJSON() ([]byte, error) {
	out := make([]byte, hex.EncodedLen(len(h))+2)
	out[0] = '"'
	hex.Encode(out[1:], h)
	out[len(out)-1] = '"'
	return out, nil
}

func (h *HexBytes) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("tracing: bad hex payload %q: %w", s, err)
	}
	*h = v
	return nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one named, timed step of a frame's processing. Timestamps
// are nanoseconds on the runtime's monotonic clock; durations between
// StartNS and EndNS are what matter, not the absolute values.
type Span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`

	// attrStore backs Attrs for the first annotation so the per-frame
	// hot path stays allocation-free (the pipeline's spans each set at
	// most one); SetAttr spills to the heap only past its capacity.
	attrStore [1]Attr
}

// Duration is the span's elapsed time.
func (s *Span) Duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// SetAttr annotates the span. Safe on a nil span (no-op), so call
// sites need no tracing-enabled branch.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// End stamps the span's finish time. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndNS = nanotime()
}

// EndAt stamps the span's finish with a caller-supplied timestamp
// (from Now or an adjacent span's boundary). Safe on a nil span.
func (s *Span) EndAt(ns int64) {
	if s == nil {
		return
	}
	s.EndNS = ns
}

// Now returns the monotonic timestamp spans are stamped with. A call
// site that closes one span exactly where the next opens can take a
// single reading and hand it to EndAt and StartSpanAt — at several
// spans per frame the saved clock reads are a measurable slice of the
// replay budget.
func Now() int64 { return nanotime() }

// FrameTrace collects the spans of one frame. It is handed from
// stage to stage along with the frame itself — reader to worker to
// reordering stage — and only ever touched by the goroutine currently
// holding the frame, so it needs no locking. A nil *FrameTrace is the
// uninstrumented case: StartSpan returns nil and every span method
// no-ops.
type FrameTrace struct {
	ID    TraceID `json:"trace"`
	Spans []*Span `json:"spans"`

	// Inline storage: the pipeline opens five spans per frame, so the
	// span records, the Spans slice, the per-cluster distances, the edge
	// set (64 samples: vehicle A's, at 20 MS/s) and the decision record
	// all live inside the FrameTrace — one allocation per frame. The
	// buffers spill to the heap only past the arena's capacity.
	arena     [5]Span
	spanStore [5]*Span
	distStore [12]ClusterDistance
	edgeStore [64]float64
	dec       Decision
}

// NewFrameTrace starts the trace for one frame.
func NewFrameTrace(id TraceID) *FrameTrace {
	ft := &FrameTrace{ID: id}
	ft.Spans = ft.spanStore[:0:len(ft.spanStore)]
	return ft
}

// DecisionSlot returns the trace's embedded decision record, so the
// flight recorder's per-frame record shares the frame's one tracing
// allocation. The slot is zero-valued until the pipeline fills it and
// then follows the same immutability contract as any recorded
// Decision.
func (ft *FrameTrace) DecisionSlot() *Decision { return &ft.dec }

// DistBuf returns the trace's inline per-cluster distance buffer
// (length zero), for DetectExplainInto to append into. Safe on a nil
// trace: returns nil, and append falls back to the heap.
func (ft *FrameTrace) DistBuf() []ClusterDistance {
	if ft == nil {
		return nil
	}
	return ft.distStore[:0:len(ft.distStore)]
}

// EdgeSetBuf returns the trace's inline edge-set buffer (length
// zero), for the verdict to copy the frame's edge set out of the
// pooled extraction scratch into. Safe on a nil trace, like DistBuf.
func (ft *FrameTrace) EdgeSetBuf() []float64 {
	if ft == nil {
		return nil
	}
	return ft.edgeStore[:0:len(ft.edgeStore)]
}

// StartSpan opens a named span; the caller ends it with End. Safe on
// a nil trace (returns a nil span whose methods no-op).
func (ft *FrameTrace) StartSpan(name string) *Span {
	if ft == nil {
		return nil
	}
	return ft.StartSpanAt(name, nanotime())
}

// StartSpanAt is StartSpan with a caller-supplied start timestamp —
// typically the adjacent span's boundary, shared to avoid a second
// clock read. Safe on a nil trace.
func (ft *FrameTrace) StartSpanAt(name string, ns int64) *Span {
	if ft == nil {
		return nil
	}
	var s *Span
	if n := len(ft.Spans); n < len(ft.arena) {
		s = &ft.arena[n]
	} else {
		s = new(Span)
	}
	s.Name = name
	s.StartNS = ns
	s.Attrs = s.attrStore[:0:len(s.attrStore)]
	ft.Spans = append(ft.Spans, s)
	return s
}

// LastEnd returns the end timestamp of the most recently opened span
// — for a parent span that ends exactly where its last sub-span did —
// or a fresh clock reading when no span has ended yet.
func (ft *FrameTrace) LastEnd() int64 {
	if ft != nil && len(ft.Spans) > 0 {
		if ns := ft.Spans[len(ft.Spans)-1].EndNS; ns != 0 {
			return ns
		}
	}
	return nanotime()
}
