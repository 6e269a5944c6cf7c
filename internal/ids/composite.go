// Package ids is the intrusion detection system vProfile integrates
// into. Its composite monitor fuses the voltage verdict (edge-set
// extraction and Algorithm 3) with a period monitor for timing
// anomalies and J1939 transport reassembly, and adds per-SA
// quarantine, the alarm vocabulary, forensics and metrics. It judges
// per-message records: a capture file, a socket feed and a raw
// digitizer feed cut into records by trace.Segmenter all reach it
// through the same engine session.
//
// The paper positions vProfile as a component "that can integrate into
// an IDS to enable message sender identification"; this package is
// that integration layer.
package ids

import (
	"errors"
	"sync"
	"time"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/linalg"
	"vprofile/internal/obs"
	"vprofile/internal/obs/tracing"
)

// Composite fuses the detector families into the full monitoring stack
// the paper's conclusion recommends: vProfile voltage fingerprinting
// for sender verification, the period monitor for timing anomalies the
// voltage domain cannot see, and J1939 transport reassembly so
// diagnostic traffic decodes instead of cluttering alerts. It consumes
// per-message records (frame + trace + timestamp) — the natural unit a
// capture replay or a raw feed cut by trace.Segmenter produces.
type Composite struct {
	models     ModelProvider
	extraction edgeset.Config
	period     *PeriodMonitor
	reasm      *canbus.BAMReassembler

	warmup    int
	seen      int
	finalized bool
	lastAt    float64

	// quar is the per-SA quarantine machine; nil keeps quarantine off
	// and every verdict exactly as before. onQuar, when set, is told
	// about each state transition.
	quar   *quarantine
	onQuar func(QuarantineChange)

	// metrics is optional instrumentation; nil means no accounting at
	// all. The per-SA counter caches resolve each source address's
	// vector child once, so steady-state accounting from Sequence is a
	// plain array index plus an atomic add.
	metrics  *Metrics
	saFrames [256]*obs.Counter
	saAlarms [256]*obs.Counter

	// scratch pools per-goroutine extraction buffers for the concurrent
	// verdict hot path, traced or not. No verdict output aliases them:
	// core.Detection retains nothing from the extraction Result, and a
	// traced verdict copies the edge set into its FrameTrace before the
	// scratch goes back to the pool.
	scratch sync.Pool
}

// ModelProvider hands out the model a frame's verdict is scored
// against. The trivial provider wraps one fixed model; a hot-swap
// holder (internal/engine.ModelStore) may return a newer model over
// time, letting Chapter-5-style profile updates deploy without
// restarting the monitor.
//
// Consistency boundary: the composite calls AcquireModel exactly once
// per frame, at the top of the verdict body VoltageVerdict,
// VoltageVerdictTraced and VoltageVerdictCodes share, and scores that
// entire frame against the returned model. One frame is therefore
// always judged by a single model version end to end; frames in flight
// across a swap may score against either version, but never a mix.
// AcquireModel must be safe for concurrent use and the returned model
// immutable — swap by replacing the pointer, never by mutating a model
// a verdict might be reading.
type ModelProvider interface {
	AcquireModel() *core.Model
}

// fixedModel is the no-swap provider NewComposite wraps a plain model
// in: one pointer load away from the pre-provider behaviour.
type fixedModel struct{ m *core.Model }

func (f fixedModel) AcquireModel() *core.Model { return f.m }

// CompositeConfig parameterises the stack.
type CompositeConfig struct {
	Extraction edgeset.Config
	// Models, when non-nil, overrides the fixed model passed to
	// NewComposite (which may then be nil) — the hook hot-swappable
	// model stores plug into.
	Models ModelProvider
	// Warmup is the number of leading messages that train the period
	// monitor before it enforces (default 500).
	Warmup int
	// Metrics, when non-nil, makes the stack account every verdict
	// (see NewMetrics). Instrumentation never changes a verdict.
	Metrics *Metrics
	// Quarantine, when non-nil, enables the per-SA degradation state
	// machine: senders whose voltage verdicts stay suspicious are
	// walked to Degraded and their subsequent voltage alarms coalesce
	// into that state (CompositeResult.Suppressed) instead of firing
	// per frame. Anomalous() is unaffected; alarm-routing callers
	// should switch to Alarm().
	Quarantine *QuarantineConfig
	// OnQuarantine, when non-nil, receives one structured notification
	// per quarantine state transition — the hook observability layers
	// (incident severity routing, per-bus health) use to follow the
	// machine without polling QuarantineReports. Called synchronously
	// from Sequence, so it must be cheap and must not call back into
	// the composite.
	OnQuarantine func(QuarantineChange)
}

// QuarantineChange describes one quarantine state transition, as
// delivered to CompositeConfig.OnQuarantine.
type QuarantineChange struct {
	SA   uint8
	From SAState
	To   SAState
	// AtSec is the capture time of the frame that caused the
	// transition.
	AtSec float64
	// Degraded is the machine's total degraded-SA occupancy after the
	// transition.
	Degraded int
}

// NewComposite builds the stack around a trained vProfile model (or,
// with CompositeConfig.Models set, a hot-swappable model provider).
func NewComposite(model *core.Model, cfg CompositeConfig) (*Composite, error) {
	models := cfg.Models
	if models == nil {
		if model == nil {
			return nil, errors.New("ids: nil model")
		}
		models = fixedModel{model}
	}
	if err := cfg.Extraction.Validate(); err != nil {
		return nil, err
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 500
	}
	c := &Composite{
		models:     models,
		extraction: cfg.Extraction,
		period:     NewPeriodMonitor(),
		reasm:      canbus.NewBAMReassembler(),
		warmup:     cfg.Warmup,
		metrics:    cfg.Metrics,
	}
	if cfg.Quarantine != nil {
		c.quar = newQuarantine(*cfg.Quarantine)
		c.onQuar = cfg.OnQuarantine
	}
	return c, nil
}

// CompositeResult is the fused verdict for one message.
type CompositeResult struct {
	// Voltage is the vProfile verdict; ExtractErr is set when the
	// trace would not preprocess (in which case Voltage is zero and
	// must not be interpreted).
	Voltage    core.Detection
	ExtractErr error
	// Timing is the period monitor's verdict (PeriodOK during warmup).
	// TimingErr reports a monitor fault — the monitor could not judge
	// this message at all (e.g. no training data) — not evidence
	// against the message itself.
	Timing    PeriodVerdict
	TimingErr error
	// Transfer is non-nil when this frame completed a multi-packet
	// transport session. TransferErr reports a malformed or
	// out-of-sequence transport frame, which aborts that source's
	// session.
	Transfer    *canbus.Completed
	TransferErr error

	// Quarantine bookkeeping (all zero when quarantine is disabled):
	// SAState is the sender's state after this verdict folded in,
	// PrevSAState the state before it (they differ exactly on a
	// transition), and Suppressed marks a voltage alarm coalesced
	// because the sender was already Degraded.
	SAState     SAState
	PrevSAState SAState
	Suppressed  bool
}

// Flagged is the set of detector families that fired on this message,
// before quarantine coalescing. A malformed transport frame counts; a
// TimingErr does not (the monitor abstained, the message is innocent).
func (r CompositeResult) Flagged() obs.AlarmSet {
	var s obs.AlarmSet
	switch {
	case r.ExtractErr != nil:
		s = obs.AlarmPreprocess
	case r.Voltage.Anomaly:
		s = obs.AlarmVoltage
	}
	if r.Timing == PeriodTooEarly {
		s |= obs.AlarmTiming
	}
	if r.TransferErr != nil {
		s |= obs.AlarmTransport
	}
	return s
}

// Raised is what an operator is alarmed with: Flagged minus the analog
// evidence of a Suppressed verdict (folded into its sender's Degraded
// state), plus quarantine when this verdict moved its sender into
// Degraded. With quarantine disabled Raised equals Flagged.
func (r CompositeResult) Raised() obs.AlarmSet {
	s := r.Flagged()
	if r.Suppressed {
		s &^= obs.AlarmAnalog
	}
	if r.QuarantineChanged() && r.SAState == SADegraded {
		s |= obs.AlarmQuarantine
	}
	return s
}

// Anomalous reports whether any detector family flagged the message.
func (r CompositeResult) Anomalous() bool { return r.Flagged() != 0 }

// Alarm reports whether a detector alarm was raised for this message
// after quarantine coalescing. With quarantine disabled it equals
// Anomalous.
func (r CompositeResult) Alarm() bool { return r.Raised()&^obs.AlarmQuarantine != 0 }

// QuarantineChanged reports whether this verdict moved its sender's
// quarantine state.
func (r CompositeResult) QuarantineChanged() bool { return r.SAState != r.PrevSAState }

// VoltageVerdict runs the stateless half of the stack — edge-set
// extraction and vProfile classification — for one message. It
// touches no mutable state, so calls may run concurrently from many
// goroutines (the replay pipeline fans it out across a worker pool).
// The frame is accepted alongside the trace because the verdict
// conceptually belongs to the frame; the claimed source address is
// decoded from the analog trace itself.
//
// The model is acquired from the provider once, up front — the
// hot-swap consistency boundary documented on ModelProvider.
func (c *Composite) VoltageVerdict(frame *canbus.ExtendedFrame, tr analog.Trace) (core.Detection, error) {
	det, _, err := c.VoltageVerdictTraced(frame, tr, nil)
	return det, err
}

// VoltageVerdictTraced is VoltageVerdict with optional tracing. With a
// nil trace it is VoltageVerdict: no span, no span clock read, zero
// Forensics. With a trace it opens "ids.extract" and "ids.score" spans
// and returns the edge set, copied into the trace's own storage, and
// the per-cluster distances. The Detection and the metrics accounting
// are identical either way (Detect and DetectExplainInto return the
// same Detection), so a traced replay reconciles exactly with an
// untraced one. The FrameTrace must be owned by the calling goroutine.
func (c *Composite) VoltageVerdictTraced(frame *canbus.ExtendedFrame, tr analog.Trace, ft *tracing.FrameTrace) (core.Detection, Forensics, error) {
	return voltageVerdict(c, tr, ft)
}

// VoltageVerdictCodes is VoltageVerdictTraced over a record's packed
// ADC codes (trace.RawRecord.Samples), the form the replay pipeline
// scores: no sample is expanded to float64 first. Its verdict equals
// VoltageVerdictTraced's on the decoded trace, bit for bit.
func (c *Composite) VoltageVerdictCodes(frame *canbus.ExtendedFrame, codes []uint16, ft *tracing.FrameTrace) (core.Detection, Forensics, error) {
	return voltageVerdict(c, codes, ft)
}

// voltageVerdict is the one extract-and-score body, generic over the
// sample element so codes and decoded traces share it.
func voltageVerdict[E edgeset.Sample](c *Composite, tr []E, ft *tracing.FrameTrace) (core.Detection, Forensics, error) {
	model := c.models.AcquireModel()
	m := c.metrics
	sc, _ := c.scratch.Get().(*edgeset.Scratch)
	if sc == nil {
		sc = new(edgeset.Scratch)
	}
	defer c.scratch.Put(sc)

	// Extraction begins exactly where the preceding span (the worker's
	// decode, normally) ended, and scoring begins exactly where
	// extraction ends — sharing those boundary timestamps keeps the
	// traced path at one clock read per span instead of two.
	var sp *tracing.Span
	if ft != nil {
		sp = ft.StartSpanAt("ids.extract", ft.LastEnd())
	}
	var t0, t1 time.Time
	if m != nil {
		t0 = time.Now()
	}
	res, err := edgeset.ExtractInto(tr, c.extraction, sc)
	if m != nil {
		t1 = time.Now()
		m.ExtractSeconds.Observe(t1.Sub(t0).Seconds())
	}
	if err != nil {
		sp.SetAttr("error", err.Error()) // span methods no-op when untraced
		sp.End()
		if m != nil {
			m.extractFailed.Inc()
		}
		return core.Detection{}, Forensics{}, err
	}

	var det core.Detection
	var fx Forensics
	if ft == nil {
		det = model.Detect(res.SA, res.Set)
	} else {
		ts := tracing.Now()
		sp.SetAttr("sa", SALabel(uint8(res.SA)))
		sp.EndAt(ts)
		sp = ft.StartSpanAt("ids.score", ts)
		det, fx.Explain = model.DetectExplainInto(res.SA, res.Set, ft.DistBuf())
		fx.EdgeSet = append(linalg.Vector(ft.EdgeSetBuf()), res.Set...)
		sp.SetAttr("reason", det.Reason.String())
		sp.End()
	}
	if m != nil {
		m.ScoreSeconds.Observe(time.Since(t1).Seconds())
		if det.Predict >= 0 {
			m.Distance.Observe(det.MinDist)
		}
		if det.Anomaly {
			m.voltageAnomaly.Inc()
		} else {
			m.voltageOK.Inc()
		}
	}
	return det, fx, nil
}

// Sequence runs the stateful half of the stack — period monitoring
// and transport reassembly — folding in a voltage verdict previously
// computed by VoltageVerdict. Calls must be serialised and happen in
// message arrival order, though not necessarily from one goroutine;
// the replay pipeline guarantees this with its delivery turn, so
// composite verdicts are identical to the sequential Process path.
func (c *Composite) Sequence(frame *canbus.ExtendedFrame, at float64, voltage core.Detection, extractErr error) CompositeResult {
	out := CompositeResult{Voltage: voltage, ExtractErr: extractErr}
	c.lastAt = at

	c.seen++
	if c.seen <= c.warmup {
		c.period.Learn(frame.ID, at)
		if c.seen == c.warmup {
			c.period.Finalize()
			c.finalized = true
		}
	} else if c.finalized {
		out.Timing, out.TimingErr = c.period.Check(frame.ID, at)
		if m := c.metrics; m != nil {
			switch {
			case out.TimingErr != nil:
				m.timingFault.Inc()
			case out.Timing == PeriodTooEarly:
				m.timingEarly.Inc()
			default:
				m.timingOK.Inc()
			}
		}
	}

	out.Transfer, out.TransferErr = c.reasm.Feed(frame)

	if c.quar != nil {
		prev, cur, suppressed := c.quar.observe(uint8(frame.SA()), out.Flagged().Has(obs.AlarmAnalog), at)
		out.PrevSAState, out.SAState, out.Suppressed = prev, cur, suppressed
		if m := c.metrics; m != nil {
			if suppressed {
				m.alarmSuppressed.Inc()
			}
			if cur != prev {
				m.QuarantineTransitions.With(cur.String()).Inc()
				m.DegradedSAs.Set(int64(c.quar.degraded))
			}
		}
		if cur != prev && c.onQuar != nil {
			c.onQuar(QuarantineChange{
				SA: uint8(frame.SA()), From: prev, To: cur,
				AtSec: at, Degraded: c.quar.degraded,
			})
		}
	}

	if m := c.metrics; m != nil {
		if out.Transfer != nil {
			m.transportCompleted.Inc()
		}
		if out.TransferErr != nil {
			m.transportError.Inc()
		}
		sa := uint8(frame.SA())
		fc := c.saFrames[sa]
		if fc == nil {
			fc = m.SAFrames.With(SALabel(sa))
			c.saFrames[sa] = fc
		}
		fc.Inc()
		if out.Anomalous() {
			ac := c.saAlarms[sa]
			if ac == nil {
				ac = m.SAAlarms.With(SALabel(sa))
				c.saAlarms[sa] = ac
			}
			ac.Inc()
		}
	}
	return out
}

// Process classifies one message. It is VoltageVerdict followed by
// Sequence; the concurrent pipeline composes the same two halves.
func (c *Composite) Process(frame *canbus.ExtendedFrame, tr analog.Trace, at float64) CompositeResult {
	det, err := c.VoltageVerdict(frame, tr)
	return c.Sequence(frame, at, det, err)
}

// SilentStreams reports identifiers that have gone quiet — the
// suspension-attack signal. Call it periodically or at end of capture.
func (c *Composite) SilentStreams() []uint32 {
	if !c.finalized {
		return nil
	}
	return c.period.SweepSilent(c.lastAt)
}
