package tracing

import (
	"fmt"
	"sync"

	"vprofile/internal/obs"
	"vprofile/internal/trace"
)

// RecorderConfig parameterises a flight recorder.
type RecorderConfig struct {
	// Window is the number of frames of context captured on each side
	// of an alarm: a bundle holds up to Window pre-alarm frames, the
	// alarm frame, and Window post-alarm frames (default 8).
	Window int
	// Depth is the ring capacity — how many recent frames stay
	// replayable at any moment. It is clamped up to hold a full
	// pre-window (default 4×Window).
	Depth int
	// Dir, when non-empty, is where forensic bundles are written (one
	// directory per bundle). Empty keeps bundles in memory only, still
	// retrievable over /debug/flight.
	Dir string
	// Keep bounds the finished bundles retained in memory for
	// /debug/flight (default 16; oldest evicted first).
	Keep int
	// Header describes the capture being replayed; it becomes the
	// header of each bundle's waveform sidecar so the sidecar is
	// itself a valid capture file.
	Header trace.Header
	// Events, when non-nil, receives one severity-tagged EventFlight
	// record per finished bundle (an *obs.EventLog, or a fleet member's
	// event outlet).
	Events interface{ Emit(obs.Event) error }
	// Tag, when non-nil, is called on each bundle just before it is
	// written — after the post-context closed, so the bundle is final
	// except for Path/Truncated. The incident layer uses it to stamp
	// Bundle.Incident (and register the bundle with the incident's
	// evidence); any field it sets lands in bundle.json. Called with
	// the recorder lock held: keep it cheap, never call back into the
	// recorder.
	Tag func(*Bundle)
}

// Stats counts what the recorder has seen.
type Stats struct {
	Frames  int64 // decisions recorded
	Alarms  int64 // decisions that opened a capture window
	Bundles int64 // bundles finished (written when Dir is set)
}

// Recorder is the flight recorder: a lock-light ring buffer of the
// last Depth frames' decision records, plus the capture-window logic
// that freezes pre/post context around every alarm into a Bundle.
//
// Record is called once per frame from the pipeline's reordering
// goroutine; the mutex exists only so /debug/flight scrapes (and
// tests) can read a consistent view mid-replay, so the hot path is
// one uncontended lock, a ring store and an integer of bookkeeping
// per frame.
type Recorder struct {
	cfg RecorderConfig

	mu      sync.Mutex
	ring    []*Decision // circular, nil until warm
	head    int         // next slot to write
	count   int         // filled slots (≤ len(ring))
	pending []*window   // open capture windows awaiting post-context
	bundles []*Bundle   // finished, oldest first, ≤ cfg.Keep
	stats   Stats
	seq     int
	err     error // first bundle-write error, surfaced by Close
}

// window is one in-flight capture: a bundle that has its pre-context
// and alarm frame and is waiting for post-alarm frames.
type window struct {
	b    *Bundle
	want int // post-alarm frames still to collect
}

// NewRecorder validates the configuration and builds a recorder.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 4 * cfg.Window
	}
	if cfg.Depth < cfg.Window+1 {
		cfg.Depth = cfg.Window + 1
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 16
	}
	return &Recorder{cfg: cfg, ring: make([]*Decision, cfg.Depth)}, nil
}

// Window returns the configured pre/post context size.
func (r *Recorder) Window() int { return r.cfg.Window }

// Record ingests one frame's decision. The decision and every slice
// it references must not be mutated afterwards. Alarm decisions open
// a capture window; the window closes (and its bundle is written)
// once Window further frames arrive, or at Close.
func (r *Recorder) Record(d *Decision) {
	d.seal()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Frames++

	// Feed open windows first: this frame is post-context for every
	// alarm before it, including alarms earlier in the same window.
	remaining := r.pending[:0]
	for _, w := range r.pending {
		w.b.Decisions = append(w.b.Decisions, d)
		w.want--
		if w.want <= 0 {
			r.finishLocked(w.b, false)
		} else {
			remaining = append(remaining, w)
		}
	}
	r.pending = remaining

	r.ring[r.head] = d
	r.head = (r.head + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}

	if d.Anomaly {
		r.stats.Alarms++
		r.pending = append(r.pending, &window{b: r.openLocked(d), want: r.cfg.Window})
	}
}

// openLocked snapshots the pre-window plus the alarm frame into a new
// bundle. The ring holds pointers to immutable decisions, so the
// snapshot copies the pointer slice, never the records.
func (r *Recorder) openLocked(alarm *Decision) *Bundle {
	pre := r.cfg.Window
	if pre > r.count-1 {
		pre = r.count - 1 // ring includes the alarm frame itself
	}
	ds := make([]*Decision, 0, pre+1+r.cfg.Window)
	for i := pre; i >= 0; i-- {
		ds = append(ds, r.ring[((r.head-1-i)%len(r.ring)+len(r.ring))%len(r.ring)])
	}
	r.seq++
	return &Bundle{
		Seq:        r.seq,
		Trace:      alarm.Trace,
		AlarmIndex: alarm.Index,
		TimeSec:    alarm.TimeSec,
		SA:         alarm.SA,
		FrameID:    alarm.FrameID,
		Alarms:     alarm.Alarms,
		Severity:   alarm.Severity,
		Window:     r.cfg.Window,
		Decisions:  ds,
	}
}

// finishLocked completes a bundle: writes it to disk when a directory
// is configured, emits its flight event, and retains it in memory.
func (r *Recorder) finishLocked(b *Bundle, truncated bool) {
	b.Truncated = truncated
	if r.cfg.Tag != nil {
		r.cfg.Tag(b)
	}
	if r.cfg.Dir != "" {
		path, err := writeBundle(r.cfg.Dir, b, r.cfg.Header)
		if err != nil {
			if r.err == nil {
				r.err = err
			}
		} else {
			b.Path = path
		}
	}
	r.stats.Bundles++
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > r.cfg.Keep {
		r.bundles = r.bundles[len(r.bundles)-r.cfg.Keep:]
	}
	if ev := r.cfg.Events; ev != nil {
		detail := b.Path
		if detail == "" {
			detail = fmt.Sprintf("in-memory bundle %d", b.Seq)
		}
		// Best-effort: a poisoned or already-closed event log must not
		// take the forensic bundle down with it.
		_ = ev.Emit(obs.Event{
			TimeSec: b.TimeSec, Kind: obs.EventFlight,
			Severity: b.Severity, Trace: b.Trace.String(),
			SA: obs.U8(b.SA), FrameID: obs.U32(b.FrameID),
			Incident: b.Incident,
			Detail:   detail,
		})
	}
}

// Close flushes capture windows still waiting on post-context (their
// bundles are marked Truncated) and returns the first bundle-write
// error encountered over the recorder's lifetime.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.pending {
		r.finishLocked(w.b, true)
	}
	r.pending = nil
	return r.err
}

// Err returns the first bundle-write error so far without closing.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stats returns a snapshot of the recorder's counters.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Bundles returns the retained bundles, oldest first. The slice is
// fresh; the bundles (and their decisions) are shared and immutable.
func (r *Recorder) Bundles() []*Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Bundle, len(r.bundles))
	copy(out, r.bundles)
	return out
}

// Bundle returns the retained bundle with the given sequence number.
func (r *Recorder) Bundle(seq int) (*Bundle, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.bundles {
		if b.Seq == seq {
			return b, true
		}
	}
	return nil, false
}
