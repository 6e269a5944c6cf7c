package pipeline

import (
	"bytes"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/trace"
)

// TestPoolsDropOversizedBuffers feeds one hostile-sized record and
// then normal ones through the recycler the way a replay does — refill
// a pooled raw record, view its codes, return it — and requires that
// the oversized buffer was not retained: no later get may hand back
// its capacity.
func TestPoolsDropOversizedBuffers(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Vehicle: "t", BitRate: 250e3,
		ADC: analog.ADC{SampleRate: 10e6, Bits: 12, MinVolts: -5, MaxVolts: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(samples int) {
		t.Helper()
		if err := w.Write(&trace.Record{FrameID: 0x18FEF100, Data: []byte{1, 2}, Trace: make(analog.Trace, samples)}); err != nil {
			t.Fatal(err)
		}
	}
	write(2 * maxPooledCodeBytes)
	for i := 0; i < 8; i++ {
		write(3000)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rc := &recycler{batch: 1}
	for i := 0; i < 9; i++ {
		raw := rc.getRaw()
		if err := rd.NextRawInto(raw); err != nil {
			t.Fatal(err)
		}
		if n := len(raw.Samples()); n != len(raw.Codes)/2 {
			t.Fatalf("record %d: %d samples in view, %d code bytes", i, n, len(raw.Codes))
		}
		rc.putRaw(raw)
	}
	if n := rc.outstanding.Load(); n != 0 {
		t.Fatalf("%d buffers outstanding", n)
	}

	for i := 0; i < 64; i++ {
		if raw := rc.getRaw(); cap(raw.Codes) > maxPooledCodeBytes {
			t.Fatalf("get %d returned a raw record holding %d code bytes", i, cap(raw.Codes))
		}
	}
}
