package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// hijackFeed renders a Vehicle B bus as the digitizer delivers it,
// packed little-endian uint16 codes: 30 frames, every sixth sent by
// ECU 7's transceiver under ECU 2's source address.
func hijackFeed(t testing.TB) (trace.Header, []byte) {
	t.Helper()
	v := vehicle.NewVehicleB()
	rng := rand.New(rand.NewSource(29))
	synth := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 4}
	var codes []byte
	pack := func(tr analog.Trace) {
		for _, c := range tr {
			codes = binary.LittleEndian.AppendUint16(codes, uint16(c))
		}
	}
	for i := 0; i < 30; i++ {
		ecu := v.ECUs[i%len(v.ECUs)]
		spec := ecu.Messages[0]
		if i%6 == 5 {
			ecu, spec = v.ECUs[7], v.ECUs[2].Messages[0]
		}
		data := make([]byte, spec.DataLen)
		rng.Read(data)
		frame, err := canbus.NewJ1939Frame(spec.ID, data)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := analog.SynthesizeFrame(ecu.Transceiver, frame, synth, ecu.Transceiver.NominalEnvironment(), rng)
		if err != nil {
			t.Fatal(err)
		}
		pack(tr)
	}
	idle := make(analog.Trace, 15*int(v.ADC.SamplesPerBit(v.BitRate)))
	for i := range idle {
		idle[i] = v.ADC.VoltsToCode(0.012)
	}
	pack(idle)
	return trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC}, codes
}

// randomChunks returns between 1 and 8192 bytes per Read, odd counts
// included, so codes split across reads.
type randomChunks struct {
	r   io.Reader
	rng *rand.Rand
}

func (c randomChunks) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), 1+c.rng.Intn(8192))])
}

// segmentedRun is what a replay of a segmented feed produced.
type segmentedRun struct {
	counts   engine.TallyCounts
	rows     []engine.TallyRow
	verdicts []ids.CompositeResult
}

// TestSegmentedFeedChunking: however the digitizer feed is chunked, the
// session over its segmented records reaches bit-identical verdicts and
// tallies, and they equal the sequential reference path's over the same
// records.
func TestSegmentedFeedChunking(t *testing.T) {
	m := sharedModel(t)
	h, codes := hijackFeed(t)

	session := func(feed io.Reader) segmentedRun {
		t.Helper()
		seg := trace.NewSegmenter(h, feed)
		src, err := engine.NewStreamSource("raw", io.NopCloser(seg))
		if err != nil {
			t.Fatal(err)
		}
		var run segmentedRun
		s := engine.NewSession("", engine.WithSource(src), engine.WithModel(m), engine.WithWorkers(4))
		if _, err := s.Run(func(r engine.Result) error {
			run.verdicts = append(run.verdicts, r.Verdict)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if seg.Skipped() != 0 {
			t.Fatalf("%d frames skipped", seg.Skipped())
		}
		run.counts, run.rows = s.ReadTally()
		return run
	}

	// The reference: pipeline.Sequential over the segmenter's records,
	// folded into a tally of its own.
	seg := trace.NewSegmenter(h, bytes.NewReader(codes))
	rd, err := trace.OpenReader(seg)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: engine.ExtractionFor(h)})
	if err != nil {
		t.Fatal(err)
	}
	tally := engine.NewTally()
	var ref segmentedRun
	if _, err := pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		tally.Observe(r)
		ref.verdicts = append(ref.verdicts, r.Verdict)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ref.counts, ref.rows = tally.TallyCounts, tally.Rows()
	if len(ref.verdicts) != 30 || ref.counts.VoltAlarms == 0 {
		t.Fatalf("reference: %d verdicts, %d voltage alarms; want 30 and some", len(ref.verdicts), ref.counts.VoltAlarms)
	}

	check := func(name string, got segmentedRun) {
		t.Helper()
		if got.counts != ref.counts || !reflect.DeepEqual(got.rows, ref.rows) {
			t.Fatalf("%s: tally %+v %+v, reference %+v %+v", name, got.counts, got.rows, ref.counts, ref.rows)
		}
		if len(got.verdicts) != len(ref.verdicts) {
			t.Fatalf("%s: %d verdicts, reference %d", name, len(got.verdicts), len(ref.verdicts))
		}
		for i := range ref.verdicts {
			if d := diffResults(got.verdicts[i], ref.verdicts[i]); d != "" {
				t.Fatalf("%s: frame %d: %s", name, i, d)
			}
		}
	}
	check("one chunk", session(bytes.NewReader(codes)))
	for seed := int64(1); seed <= 3; seed++ {
		check(fmt.Sprintf("random chunks, seed %d", seed), session(randomChunks{bytes.NewReader(codes), rand.New(rand.NewSource(seed))}))
	}
}
