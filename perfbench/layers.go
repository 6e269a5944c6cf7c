package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"

	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs/drift"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// layerReport is what the traced run measures.
type layerReport struct {
	metrics map[string]float64
	// pathSelfNS is the summed self time per frame of the layers on
	// the daemon's default path; latency minus it is time spent waiting.
	pathSelfNS  float64
	recordsLost int64
}

// layerState is one fresh copy of every layer the layer loop calls, so the
// untraced and traced passes start from identical state.
type layerState struct {
	strict, recovering *trace.Reader
	plain, quarantined *ids.Composite
	recorder           *tracing.Recorder
	drift              *drift.Monitor
	tally              *engine.Tally
	scratch            edgeset.Scratch
	raw, rawRecover    trace.RawRecord
	rec                trace.Record
}

func newLayerState(in *inputs) (*layerState, error) {
	s := &layerState{tally: engine.NewTally(), drift: drift.NewMonitor(drift.Config{Bus: "trace"})}
	var err error
	if s.strict, err = trace.NewReader(bytes.NewReader(in.capture)); err != nil {
		return nil, err
	}
	if s.recovering, err = trace.NewReader(bytes.NewReader(in.capture)); err != nil {
		return nil, err
	}
	s.recovering.EnableRecovery()
	store, err := engine.NewModelStore(in.model)
	if err != nil {
		return nil, err
	}
	cfg := ids.CompositeConfig{Extraction: engine.ExtractionFor(in.header), Models: store}
	if s.plain, err = ids.NewComposite(nil, cfg); err != nil {
		return nil, err
	}
	cfg.Quarantine = &ids.QuarantineConfig{}
	if s.quarantined, err = ids.NewComposite(nil, cfg); err != nil {
		return nil, err
	}
	// In memory only: the layer loop times Record, not bundle IO.
	s.recorder, err = tracing.NewRecorder(tracing.RecorderConfig{Header: in.header})
	return s, err
}

// Layer slots of the traced pass, in call order.
const (
	lRead = iota
	lReadRecover
	lDecode
	lExtract
	lScore
	lVerdict // whole VoltageVerdict call
	lTraced  // NewFrameTrace + VoltageVerdictTraced
	lSequence
	lSequenceQ
	lRecord
	lDrift
	lTally
	nLayers
)

// passStats is one pass over the capture.
type passStats struct {
	wallNS       int64
	selfNS       [nLayers]int64
	frames       int
	extractFails int
	alarms       int
	events       int
}

// layerFrames is the least number of frames one pass of the layer
// loop covers: enough for about a second of work, so a pass outlasts
// a burst of host interference rather than being swallowed by one.
const layerFrames = 40000

// add accumulates another pass.
func (p *passStats) add(o passStats) {
	p.wallNS += o.wallNS
	for l := range p.selfNS {
		p.selfNS[l] += o.selfNS[l]
	}
	p.frames += o.frames
	p.extractFails += o.extractFails
	p.alarms += o.alarms
	p.events += o.events
}

// pass calls every layer once per frame, in the order the daemon's
// data path reaches them. With timed set it reads the clock around each
// call; untimed, the same calls run back to back, and the difference in
// wall time is the tracing overhead.
func (s *layerState) pass(in *inputs, timed bool) (passStats, error) {
	var st passStats
	model := in.model
	extraction := engine.ExtractionFor(in.header)
	var t int64
	reset := func() {
		if timed {
			t = clock()
		}
	}
	mark := func(l int) {
		if timed {
			now := clock()
			st.selfNS[l] += now - t
			t = now
		}
	}
	start := clock()
	for i := 0; ; i++ {
		reset()
		err := s.strict.NextRawInto(&s.raw)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
		mark(lRead)
		if err := s.recovering.NextRawInto(&s.rawRecover); err != nil {
			return st, err
		}
		mark(lReadRecover)
		s.raw.DecodeInto(&s.rec)
		mark(lDecode)
		rec := &s.rec
		frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
		reset()

		// The verdict runs once untimed first, so the trace is warm for
		// the standalone extract and score and for the timed verdict
		// call they are subtracted from; the two then swap order on
		// alternate frames, so neither always runs on the warmer cache.
		det, verr := s.plain.VoltageVerdict(frame, rec.Trace)
		reset()
		if i%2 == 1 {
			_, _ = s.plain.VoltageVerdict(frame, rec.Trace)
			mark(lVerdict)
		}
		res, err := edgeset.ExtractInto(rec.Trace, extraction, &s.scratch)
		mark(lExtract)
		if err != nil {
			st.extractFails++
		} else {
			_ = model.Detect(res.SA, res.Set)
		}
		mark(lScore)
		if i%2 == 0 {
			_, _ = s.plain.VoltageVerdict(frame, rec.Trace)
			mark(lVerdict)
		}
		ft := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
		tdet, fx, _ := s.plain.VoltageVerdictTraced(frame, rec.Trace, ft)
		mark(lTraced)
		v := s.plain.Sequence(frame, rec.TimeSec, det, verr)
		mark(lSequence)
		vq := s.quarantined.Sequence(frame, rec.TimeSec, det, verr)
		mark(lSequenceQ)
		d := decision(ft, i, rec, frame, vq, tdet, fx)
		reset()
		s.recorder.Record(d)
		mark(lRecord)
		if verr == nil && det.Expected >= 0 && det.Predict >= 0 && int(det.Expected) < len(model.Clusters) {
			s.drift.Observe(uint8(frame.SA()), det.MinDist, model.Clusters[det.Expected].MaxDist+model.Margin, rec.TimeSec)
		}
		mark(lDrift)
		events := s.tally.Observe(pipeline.Result{Index: i, Record: rec, Frame: frame, Verdict: v})
		mark(lTally)
		st.frames++
		st.events += len(events)
		if v.Alarm() {
			st.alarms++
		}
	}
	st.wallNS = clock() - start
	return st, s.recorder.Close()
}

// decision fills the frame trace's decision slot the way the pipeline
// does for the flight recorder. Its payload and samples alias buffers
// the layer loop reuses; the in-memory bundles are never read.
func decision(ft *tracing.FrameTrace, i int, rec *trace.Record, frame *canbus.ExtendedFrame, v ids.CompositeResult, det core.Detection, fx ids.Forensics) *tracing.Decision {
	d := ft.DecisionSlot()
	*d = tracing.Decision{
		Trace: ft.ID, Index: i, TimeSec: rec.TimeSec, FrameID: rec.FrameID,
		SA: uint8(frame.SA()), Data: rec.Data, ECUIndex: rec.ECUIndex,
		Spans: ft.Spans, Samples: rec.Trace, Suppressed: v.Suppressed,
	}
	if v.ExtractErr != nil {
		d.ExtractErr = v.ExtractErr.Error()
		d.Expected, d.Predicted = -1, -1
		if !v.Suppressed {
			d.Alarms = append(d.Alarms, tracing.AlarmPreprocess)
		}
	} else {
		d.Reason = det.Reason.String()
		d.Expected, d.Predicted, d.MinDist = int(det.Expected), int(det.Predict), det.MinDist
		d.Threshold, d.Margin, d.Distances = fx.Explain.Threshold, fx.Explain.Margin, fx.Explain.Distances
		d.EdgeSet = fx.EdgeSet
		if det.Anomaly && !v.Suppressed {
			d.Alarms = append(d.Alarms, tracing.AlarmVoltage)
		}
	}
	if v.QuarantineChanged() && v.SAState == ids.SADegraded {
		d.Alarms = append(d.Alarms, tracing.AlarmQuarantine)
	}
	if v.Timing == ids.PeriodTooEarly {
		d.Alarms = append(d.Alarms, tracing.AlarmTiming)
	}
	if v.TransferErr != nil {
		d.Alarms = append(d.Alarms, tracing.AlarmTransport)
	}
	return d
}

// allocSample is how many leading records the allocation counts use;
// their decoded traces are held in memory for the per-layer loops.
const allocSample = 1000

// allocs counts heap allocations per call of each layer in isolation,
// over the first records of the capture with reused buffers.
func allocs(in *inputs) (map[string]float64, error) {
	rd, err := trace.NewReader(bytes.NewReader(in.capture))
	if err != nil {
		return nil, err
	}
	var recs []*trace.Record
	for len(recs) < allocSample {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	k := float64(len(recs))
	count := func(fn func()) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / k
	}
	out := map[string]float64{}

	rd, err = trace.NewReader(bytes.NewReader(in.capture))
	if err != nil {
		return nil, err
	}
	var raw trace.RawRecord
	var dec trace.Record
	out["trace.allocs"] = count(func() {
		for range recs {
			if rd.NextRawInto(&raw) == nil {
				raw.DecodeInto(&dec)
			}
		}
	})

	extraction := engine.ExtractionFor(in.header)
	var scratch edgeset.Scratch
	type scored struct {
		sa  canbus.SourceAddress
		set []float64
	}
	sets := make([]scored, 0, len(recs))
	out["edgeset.allocs"] = count(func() {
		for _, rec := range recs {
			_, _ = edgeset.ExtractInto(rec.Trace, extraction, &scratch)
		}
	})
	// The scorer's inputs are copied out of the scratch outside any
	// counted loop: the copies are the benchmark's, not a layer's.
	for _, rec := range recs {
		if res, err := edgeset.ExtractInto(rec.Trace, extraction, &scratch); err == nil {
			sets = append(sets, scored{res.SA, append([]float64(nil), res.Set...)})
		}
	}
	out["core.allocs"] = count(func() {
		for _, s := range sets {
			_ = in.model.Detect(s.sa, s.set)
		}
	})

	store, err := engine.NewModelStore(in.model)
	if err != nil {
		return nil, err
	}
	mon, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: extraction, Models: store})
	if err != nil {
		return nil, err
	}
	recorder, err := tracing.NewRecorder(tracing.RecorderConfig{Header: in.header})
	if err != nil {
		return nil, err
	}
	out["tracing.allocs"] = count(func() {
		for i, rec := range recs {
			frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
			ft := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
			det, fx, err := mon.VoltageVerdictTraced(frame, rec.Trace, ft)
			v := mon.Sequence(frame, rec.TimeSec, det, err)
			recorder.Record(decision(ft, i, rec, frame, v, det, fx))
		}
	})
	return out, recorder.Close()
}

// sessionStats replays the capture through an engine.Session with the
// default options, the daemon's per-bus runtime without the socket, and
// returns its pipeline statistics.
func sessionStats(in *inputs) (pipeline.Stats, error) {
	src, err := engine.NewStreamSource("trace", io.NopCloser(bytes.NewReader(in.capture)))
	if err != nil {
		return pipeline.Stats{}, err
	}
	tally := engine.NewTally()
	sum, err := engine.NewSession("", engine.WithName("trace"), engine.WithSource(src), engine.WithModel(in.model)).Run(func(r engine.Result) error {
		tally.Observe(r.Result)
		return nil
	})
	if err != nil {
		return sum.Stats, err
	}
	if tally.Frames() != in.records() {
		return sum.Stats, fmt.Errorf("session tallied %d of %d records", tally.Frames(), in.records())
	}
	return sum.Stats, nil
}

// traceLayers is the traced run: untraced and traced passes of the
// layer loop over the workload's capture, the isolated allocation
// counts, and the pipeline statistics of an engine session.
func traceLayers(in *inputs) (*layerReport, error) {
	// Untraced and traced passes alternate, twice, and each side keeps
	// its fastest pass: host interference only ever slows a pass. A
	// pass replays the capture, with fresh layer state each time, until
	// it has covered layerFrames frames.
	var plain, st passStats
	for k, timed := range []bool{false, true, false, true} {
		var ps passStats
		for ps.frames < layerFrames {
			s, err := newLayerState(in)
			if err != nil {
				return nil, err
			}
			one, err := s.pass(in, timed)
			if err != nil {
				return nil, err
			}
			ps.add(one)
		}
		best := &plain
		if timed {
			best = &st
		}
		if k < 2 || ps.wallNS < best.wallNS {
			*best = ps
		}
	}
	n := float64(st.frames)
	ns := func(l int) float64 { return float64(st.selfNS[l]) / n }
	m := map[string]float64{
		"trace.read_ns":              ns(lRead),
		"trace.read_recover_ns":      ns(lReadRecover),
		"trace.decode_ns":            ns(lDecode),
		"edgeset.extract_ns":         ns(lExtract),
		"edgeset.fail_ratio":         float64(st.extractFails) / n,
		"core.score_ns":              ns(lScore),
		"ids.verdict_ns":             ns(lVerdict) - ns(lExtract) - ns(lScore),
		"ids.sequence_ns":            ns(lSequence),
		"ids.sequence_quarantine_ns": ns(lSequenceQ),
		"ids.alarm_ratio":            float64(st.alarms) / n,
		"tracing.verdict_traced_ns":  ns(lTraced) - ns(lVerdict),
		"tracing.record_ns":          ns(lRecord),
		"drift.observe_ns":           ns(lDrift),
		"engine.tally_ns":            ns(lTally),
		"engine.events_per_kframe":   float64(st.events) * 1e3 / n,
		"bench.trace_overhead_pct":   100 * float64(st.wallNS-plain.wallNS) / float64(plain.wallNS),
	}
	rep := &layerReport{metrics: m}
	// The daemon's default path: the verdict call covers extract and
	// score, so those are not added again.
	for _, l := range []int{lRead, lDecode, lVerdict, lSequence, lTally} {
		rep.pathSelfNS += ns(l)
	}

	a, err := allocs(in)
	if err != nil {
		return nil, err
	}
	for k, v := range a {
		m[k] = v
	}
	ps, err := sessionStats(in)
	if err != nil {
		return nil, err
	}
	m["pipeline.utilization"] = ps.Utilization()
	m["pipeline.busy_us_per_frame"] = ps.WorkerBusy.Seconds() * 1e6 / float64(ps.RecordsOut)
	rep.recordsLost = ps.RecordsIn - ps.RecordsOut
	return rep, nil
}
