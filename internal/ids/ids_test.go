package ids_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// The tests in this file drive the composite IDS from a raw digitizer
// feed: a continuous sample stream cut into capture records by
// trace.Segmenter and replayed through an engine session.

// buildModel trains a Mahalanobis model on Vehicle B traffic.
func buildModel(t *testing.T, v *vehicle.Vehicle) *core.Model {
	t.Helper()
	train, err := experiments.CollectSamples(v, 1500, 7, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{
		Metric: core.Mahalanobis, SAMap: v.SAMap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	val, err := experiments.CollectSamples(v, 800, 8, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	margin, _ := experiments.OptimizeMargin(experiments.FalsePositiveRecords(m, val), experiments.MaxAccuracy)
	m.Margin = margin * 1.5
	return m
}

// streamFrame is one frame of a synthesized bus stream: the ECU whose
// transceiver drives it and the source address it claims.
type streamFrame struct {
	ecu int
	sa  canbus.SourceAddress
}

// busStream renders full frames (with EOF and trailing idle) from the
// given senders into one continuous sample stream, and returns the
// frames sent.
func busStream(t *testing.T, v *vehicle.Vehicle, frames []streamFrame, seed int64) (analog.Trace, []*canbus.ExtendedFrame) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 4}
	var stream analog.Trace
	var sent []*canbus.ExtendedFrame
	for _, fr := range frames {
		ecu := v.ECUs[fr.ecu]
		spec := ecu.Messages[0]
		id := spec.ID
		id.SA = fr.sa
		data := make([]byte, spec.DataLen)
		rng.Read(data)
		frame, err := canbus.NewJ1939Frame(id, data)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := analog.SynthesizeFrame(ecu.Transceiver, frame, cfg, ecu.Transceiver.NominalEnvironment(), rng)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, tr...)
		sent = append(sent, frame)
	}
	// Trailing idle so the last frame terminates.
	idle := make(analog.Trace, 15*int(v.ADC.SamplesPerBit(v.BitRate)))
	recCode := v.ADC.VoltsToCode(0.012)
	for i := range idle {
		idle[i] = recCode
	}
	return append(stream, idle...), sent
}

// packCodes packs a sample stream as the digitizer delivers it: one
// little-endian uint16 per sample.
func packCodes(tr analog.Trace) []byte {
	b := make([]byte, 0, 2*len(tr))
	for _, c := range tr {
		b = binary.LittleEndian.AppendUint16(b, uint16(c))
	}
	return b
}

// chunkReader returns at most n bytes per Read, so codes split across
// reads whenever n is odd.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// rawVerdict is what the tests keep of one session result.
type rawVerdict struct {
	frameID uint32
	data    []byte
	timeSec float64
	verdict ids.CompositeResult
}

// replayRaw segments a packed sample feed and replays it through an
// engine session scored against m.
func replayRaw(t *testing.T, v *vehicle.Vehicle, m *core.Model, feed io.Reader) ([]rawVerdict, *trace.Segmenter, engine.Summary) {
	t.Helper()
	seg := trace.NewSegmenter(trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC}, feed)
	src, err := engine.NewStreamSource("raw", io.NopCloser(seg))
	if err != nil {
		t.Fatal(err)
	}
	var out []rawVerdict
	sum, err := engine.NewSession("", engine.WithSource(src), engine.WithModel(m)).Run(func(r engine.Result) error {
		out = append(out, rawVerdict{r.Frame.ID, bytes.Clone(r.Frame.Data), r.Record.TimeSec, r.Verdict})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, seg, sum
}

func TestIDSConfigValidation(t *testing.T) {
	v := vehicle.NewVehicleB()
	h := trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC}
	src, err := engine.NewStreamSource("raw", io.NopCloser(trace.NewSegmenter(h, bytes.NewReader(nil))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewSession("", engine.WithSource(src)).Run(nil); err == nil {
		t.Error("raw feed replayed without a model")
	}
	// A bit rate this high leaves under one sample per bit: no
	// extraction configuration validates for it.
	bad := h
	bad.BitRate = 2 * v.ADC.SampleRate
	if _, err := engine.NewStreamSource("raw", io.NopCloser(trace.NewSegmenter(bad, bytes.NewReader(nil)))); err == nil {
		t.Error("segmenter accepted a header with an invalid extraction configuration")
	}
}

func TestIDSSegmentsAndAcceptsLegitimateStream(t *testing.T) {
	v := vehicle.NewVehicleB()
	m := buildModel(t, v)
	frames := []streamFrame{}
	for i := 0; i < 12; i++ {
		ecu := i % len(v.ECUs)
		frames = append(frames, streamFrame{ecu: ecu, sa: v.ECUs[ecu].SAs()[0]})
	}
	stream, sent := busStream(t, v, frames, 31)

	// Feed in uneven chunks to exercise buffering.
	results, seg, sum := replayRaw(t, v, m, chunkReader{bytes.NewReader(packCodes(stream)), 777})
	if len(results) != len(frames) || seg.Skipped() != 0 {
		t.Fatalf("segmented %d frames (skipped %d), sent %d", len(results), seg.Skipped(), len(frames))
	}
	for i, r := range results {
		if r.verdict.ExtractErr != nil {
			t.Fatalf("frame %d: %v", i, r.verdict.ExtractErr)
		}
		if r.frameID != sent[i].ID || !bytes.Equal(r.data, sent[i].Data) {
			t.Fatalf("frame %d: id %#x data %x, sent %#x %x", i, r.frameID, r.data, sent[i].ID, sent[i].Data)
		}
		if r.verdict.Anomalous() {
			t.Fatalf("frame %d flagged: %+v", i, r.verdict)
		}
		// Capture times must be strictly increasing.
		if i > 0 && r.timeSec <= results[i-1].timeSec {
			t.Fatalf("frame times not increasing: %g then %g", results[i-1].timeSec, r.timeSec)
		}
	}
	if sum.Tally.Frames() != len(frames) || sum.Tally.VoltAlarms != 0 {
		t.Fatalf("tally %+v", sum.Tally.TallyCounts)
	}
}

func TestIDSFlagsHijackedFrame(t *testing.T) {
	v := vehicle.NewVehicleB()
	m := buildModel(t, v)
	// ECU 7 transmits under ECU 2's source address: the waveform
	// betrays it.
	frames := []streamFrame{
		{ecu: 0, sa: v.ECUs[0].SAs()[0]},
		{ecu: 7, sa: v.ECUs[2].SAs()[0]}, // hijack
		{ecu: 3, sa: v.ECUs[3].SAs()[0]},
	}
	stream, _ := busStream(t, v, frames, 32)
	results, _, _ := replayRaw(t, v, m, bytes.NewReader(packCodes(stream)))
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].verdict.Anomalous() || results[2].verdict.Anomalous() {
		t.Fatal("legitimate frames flagged")
	}
	det := results[1].verdict.Voltage
	if !det.Anomaly {
		t.Fatal("hijacked frame accepted")
	}
	if det.Reason != core.ReasonClusterMismatch && det.Reason != core.ReasonOverThreshold {
		t.Fatalf("unexpected reason %v", det.Reason)
	}
}

func TestIDSFlagsUnknownSA(t *testing.T) {
	v := vehicle.NewVehicleB()
	m := buildModel(t, v)
	frames := []streamFrame{{ecu: 1, sa: 0xEE}}
	stream, _ := busStream(t, v, frames, 33)
	results, _, _ := replayRaw(t, v, m, bytes.NewReader(packCodes(stream)))
	if len(results) != 1 || !results[0].verdict.Voltage.Anomaly {
		t.Fatalf("results %+v", results)
	}
	if results[0].verdict.Voltage.Reason != core.ReasonUnknownSA {
		t.Fatalf("reason %v", results[0].verdict.Voltage.Reason)
	}
}

func TestIDSIdleOnlyStreamProducesNothing(t *testing.T) {
	v := vehicle.NewVehicleB()
	m := buildModel(t, v)
	idle := make(analog.Trace, 100000)
	recCode := v.ADC.VoltsToCode(0.012)
	for i := range idle {
		idle[i] = recCode
	}
	results, seg, sum := replayRaw(t, v, m, bytes.NewReader(packCodes(idle)))
	if len(results) != 0 || seg.Skipped() != 0 {
		t.Fatalf("%d frames (%d skipped) from an idle bus", len(results), seg.Skipped())
	}
	if sum.Tally.Frames() != 0 {
		t.Fatalf("tally %+v", sum.Tally.TallyCounts)
	}
}
