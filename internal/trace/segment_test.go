package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/edgeset"
	"vprofile/internal/vehicle"
)

// segFixture is a synthesized digitizer feed: Vehicle B frames rendered
// back to back into one packed sample stream.
type segFixture struct {
	v     *vehicle.Vehicle
	h     Header
	cfg   edgeset.Config
	codes []byte
	sent  []*canbus.ExtendedFrame // the well-formed frames, in order
	rng   *rand.Rand
}

func newSegFixture(seed int64) *segFixture {
	v := vehicle.NewVehicleB()
	return &segFixture{
		v: v, h: Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC},
		cfg: v.ExtractionConfig(), rng: rand.New(rand.NewSource(seed)),
	}
}

// frame renders one frame of ECU ecu's first message with random data
// and returns its wire bits (stuff bits included).
func (f *segFixture) frame(t testing.TB, ecu int) (*canbus.ExtendedFrame, canbus.BitString) {
	t.Helper()
	spec := f.v.ECUs[ecu].Messages[0]
	data := make([]byte, spec.DataLen)
	f.rng.Read(data)
	fr, err := canbus.NewJ1939Frame(spec.ID, data)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := fr.WireBits(true)
	if err != nil {
		t.Fatal(err)
	}
	return fr, wire
}

// wire renders wire bits as ECU ecu's transceiver drives them, after
// four bit times of idle.
func (f *segFixture) wire(ecu int, wire canbus.BitString) {
	tx := f.v.ECUs[ecu].Transceiver
	tr := analog.Synthesize(tx, wire, analog.SynthConfig{ADC: f.v.ADC, BitRate: f.v.BitRate, LeadIdleBits: 4}, tx.NominalEnvironment(), f.rng)
	f.samples(tr)
}

// send renders a well-formed frame from ECU ecu.
func (f *segFixture) send(t testing.TB, ecu int) {
	fr, wire := f.frame(t, ecu)
	f.wire(ecu, wire)
	f.sent = append(f.sent, fr)
}

// idle appends n bit times of recessive bus.
func (f *segFixture) idle(bits int) {
	tr := make(analog.Trace, bits*f.cfg.BitWidth)
	for i := range tr {
		tr[i] = f.v.ADC.VoltsToCode(0.012)
	}
	f.samples(tr)
}

// dominant appends n bit times of stuck-dominant bus.
func (f *segFixture) dominant(bits int) {
	tr := make(analog.Trace, bits*f.cfg.BitWidth)
	for i := range tr {
		tr[i] = f.v.ADC.VoltsToCode(2.0)
	}
	f.samples(tr)
}

func (f *segFixture) samples(tr analog.Trace) {
	for _, c := range tr {
		f.codes = binary.LittleEndian.AppendUint16(f.codes, uint16(c))
	}
}

// segment reads the segmenter's whole capture stream back through the
// capture reader.
func segment(t testing.TB, seg *Segmenter) []RawRecord {
	t.Helper()
	rd, err := OpenReader(seg)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Release()
	var recs []RawRecord
	for {
		var rec RawRecord
		err := rd.NextRawInto(&rec)
		if errors.Is(err, io.EOF) {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

// chunked returns at most n bytes per Read.
type chunked struct {
	r io.Reader
	n int
}

func (c chunked) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// firstDominant is the index of the first sample at or above the
// threshold at or after sample from, or −1.
func firstDominant(codes []byte, from int, th float64) int {
	for i := from; 2*i+1 < len(codes); i++ {
		if float64(binary.LittleEndian.Uint16(codes[2*i:])) >= th {
			return i
		}
	}
	return -1
}

func TestSegmenterLegitimateStream(t *testing.T) {
	f := newSegFixture(31)
	for i := 0; i < 12; i++ {
		f.send(t, i%len(f.v.ECUs))
	}
	f.idle(15)
	seg := NewSegmenter(f.h, chunked{bytes.NewReader(f.codes), 777})
	recs := segment(t, seg)
	if len(recs) != len(f.sent) || seg.Skipped() != 0 {
		t.Fatalf("%d records, %d skipped; sent %d frames", len(recs), seg.Skipped(), len(f.sent))
	}
	for i, r := range recs {
		if r.ECUIndex != -1 || r.FrameID != f.sent[i].ID || !bytes.Equal(r.Data, f.sent[i].Data) {
			t.Fatalf("record %d: ecu %d id %#x data %x, sent %#x %x", i, r.ECUIndex, r.FrameID, r.Data, f.sent[i].ID, f.sent[i].Data)
		}
		if i > 0 && r.TimeSec <= recs[i-1].TimeSec {
			t.Fatalf("record times not increasing: %g then %g", recs[i-1].TimeSec, r.TimeSec)
		}
	}
	// SOF lock: the first record starts one bit width before the first
	// dominant sample, is timed by it, and carries the feed's codes
	// byte for byte.
	sof := firstDominant(f.codes, 0, f.cfg.BitThreshold)
	lead := 2 * (sof - f.cfg.BitWidth)
	if want := float64(sof) / f.h.ADC.SampleRate; recs[0].TimeSec != want {
		t.Fatalf("first record at %g s, SOF at %g s", recs[0].TimeSec, want)
	}
	if !bytes.Equal(recs[0].Codes, f.codes[lead:lead+len(recs[0].Codes)]) {
		t.Fatal("first record's codes differ from the feed's")
	}
}

func TestSegmenterIdleOnlyStreamProducesNothing(t *testing.T) {
	f := newSegFixture(1)
	f.idle(2500)
	seg := NewSegmenter(f.h, bytes.NewReader(f.codes))
	if recs := segment(t, seg); len(recs) != 0 || seg.Skipped() != 0 {
		t.Fatalf("%d records, %d skipped from an idle bus", len(recs), seg.Skipped())
	}
}

// TestSegmenterConservation: every frame on the wire is either a
// record or skipped — a frame whose CRC does not check and a frame cut
// off by the end of the feed included.
func TestSegmenterConservation(t *testing.T) {
	f := newSegFixture(41)
	sent := 0
	for i := 0; i < 8; i++ {
		if i == 3 {
			// Drive one recessive data bit dominant: the CRC (or the
			// stuffing) no longer checks. Turning a bit dominant cannot
			// open an idle gap inside the frame.
			_, wire := f.frame(t, i%len(f.v.ECUs))
			for b := canbus.BitData + 10; ; b++ {
				if wire[b] == canbus.Recessive {
					wire[b] = canbus.Dominant
					break
				}
			}
			f.wire(i%len(f.v.ECUs), wire)
		} else {
			f.send(t, i%len(f.v.ECUs))
		}
		sent++
	}
	// A last frame cut off mid-transmission by the end of the feed.
	_, wire := f.frame(t, 0)
	f.wire(0, wire[:len(wire)/2])
	sent++

	for _, chunk := range []int{1, 333, 1 << 20} {
		seg := NewSegmenter(f.h, chunked{bytes.NewReader(f.codes), chunk})
		recs := segment(t, seg)
		if len(recs) != len(f.sent) || seg.Skipped() != 2 || int64(len(recs))+seg.Skipped() != int64(sent) {
			t.Fatalf("chunk %d: %d records + %d skipped, %d frames sent (%d well-formed)", chunk, len(recs), seg.Skipped(), sent, len(f.sent))
		}
		for i, r := range recs {
			if r.FrameID != f.sent[i].ID || !bytes.Equal(r.Data, f.sent[i].Data) {
				t.Fatalf("chunk %d record %d: id %#x, sent %#x", chunk, i, r.FrameID, f.sent[i].ID)
			}
		}
	}
}

// TestSegmenterResyncsAfterStuckBus: a bus held dominant is cut at the
// runaway bound, each piece skipped, and segmentation locks onto the
// next frame after the bus goes idle.
func TestSegmenterResyncsAfterStuckBus(t *testing.T) {
	f := newSegFixture(51)
	f.send(t, 0)
	f.idle(4)
	f.dominant(2*maxFrameBits + 80)
	f.idle(12)
	f.send(t, 1)
	f.send(t, 2)
	f.idle(15)
	seg := NewSegmenter(f.h, bytes.NewReader(f.codes))
	recs := segment(t, seg)
	if len(recs) != 3 || seg.Skipped() != 3 {
		t.Fatalf("%d records, %d skipped; want 3 and 3", len(recs), seg.Skipped())
	}
	for i, r := range recs {
		if r.FrameID != f.sent[i].ID {
			t.Fatalf("record %d: id %#x, sent %#x", i, r.FrameID, f.sent[i].ID)
		}
	}
}

// FuzzSegment throws arbitrary sample bytes at the segmenter. It must
// never panic, its output must parse to the end as a capture, every
// record must fit the runaway bound plus lead-in, and its buffer must
// stay within twice the bound.
func FuzzSegment(f *testing.F) {
	// A hijack: ECU 7's transceiver sends ECU 2's message.
	fx := newSegFixture(61)
	fx.send(f, 2)
	_, wire := fx.frame(f, 2)
	fx.wire(7, wire)
	fx.idle(10)
	f.Add(fx.codes, uint16(4096))
	idle := newSegFixture(62)
	idle.idle(400)
	f.Add(idle.codes, uint16(1))

	h, cfg := fx.h, fx.cfg
	maxRecord := 2 * (maxFrameBits + 1) * cfg.BitWidth
	f.Fuzz(func(t *testing.T, feed []byte, chunk uint16) {
		seg := NewSegmenter(h, chunked{bytes.NewReader(feed), int(chunk) + 1})
		bound := &boundChecker{seg: seg, max: 2 * 2 * maxFrameBits * cfg.BitWidth}
		rd, err := OpenReader(bound)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Release()
		var rec RawRecord
		var records int64
		for {
			err := rd.NextRawInto(&rec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("segmented stream does not parse: %v", err)
			}
			records++
			if len(rec.Codes) > maxRecord {
				t.Fatalf("record of %d samples, bound %d", len(rec.Codes)/2, maxRecord/2)
			}
		}
		if bound.over != 0 {
			t.Fatalf("buffer held %d bytes, bound %d", bound.over, bound.max)
		}
		if records+seg.Skipped() > int64(len(feed)/2) {
			t.Fatalf("%d records + %d skipped from %d samples", records, seg.Skipped(), len(feed)/2)
		}
	})
}

// boundChecker reads through a segmenter and records the largest
// buffer capacity it ever held past max.
type boundChecker struct {
	seg       *Segmenter
	max, over int
}

func (b *boundChecker) Read(p []byte) (int, error) {
	n, err := b.seg.Read(p)
	if c := cap(b.seg.raw); c > b.max && c > b.over {
		b.over = c
	}
	return n, err
}
