package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"vprofile/internal/analog"
)

// reuseFixture writes a capture whose records shrink and grow so the
// reused buffers are exercised in both directions (stale-tail reuse
// and regrowth).
func reuseFixture(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{ECUIndex: 0, TimeSec: 0.1, FrameID: 0x0CF00400, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Trace: analog.Trace{100, 200, 300, 400, 500}},
		{ECUIndex: 1, TimeSec: 0.2, FrameID: 0x18FEF117, Data: []byte{9}, Trace: analog.Trace{7}},
		{ECUIndex: -1, TimeSec: 0.3, FrameID: 0x18FEF121, Data: nil, Trace: nil},
		{ECUIndex: 2, TimeSec: 0.4, FrameID: 0x0CF00401, Data: []byte{4, 4}, Trace: analog.Trace{65535, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNextRawIntoMatchesFreshRead reads the same capture into a fresh
// RawRecord per call and into one RawRecord and one Record reused
// across the whole stream, and requires identical records, including
// after shrink/regrow transitions.
func TestNextRawIntoMatchesFreshRead(t *testing.T) {
	data := reuseFixture(t)

	ra, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	var raw RawRecord
	var rec Record
	for i := 0; ; i++ {
		want := new(RawRecord)
		wantErr := ra.NextRawInto(want)
		gotErr := rb.NextRawInto(&raw)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("record %d: fresh read err %v, reused read err %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if !errors.Is(wantErr, io.EOF) || !errors.Is(gotErr, io.EOF) {
				t.Fatalf("record %d: non-EOF end: %v / %v", i, wantErr, gotErr)
			}
			return
		}
		if raw.ECUIndex != want.ECUIndex || raw.TimeSec != want.TimeSec || raw.FrameID != want.FrameID {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, raw, *want)
		}
		if !bytes.Equal(raw.Data, want.Data) {
			t.Fatalf("record %d data %v, want %v", i, raw.Data, want.Data)
		}
		if !bytes.Equal(raw.Codes, want.Codes) {
			t.Fatalf("record %d codes mismatch (len %d vs %d)", i, len(raw.Codes), len(want.Codes))
		}

		wantRec := want.Decode()
		raw.DecodeInto(&rec)
		if rec.ECUIndex != wantRec.ECUIndex || rec.TimeSec != wantRec.TimeSec || rec.FrameID != wantRec.FrameID {
			t.Fatalf("record %d decoded header mismatch", i)
		}
		if !bytes.Equal(rec.Data, wantRec.Data) {
			t.Fatalf("record %d decoded data mismatch", i)
		}
		if len(rec.Trace) != len(wantRec.Trace) {
			t.Fatalf("record %d trace length %d vs %d", i, len(rec.Trace), len(wantRec.Trace))
		}
		for j := range wantRec.Trace {
			if rec.Trace[j] != wantRec.Trace[j] {
				t.Fatalf("record %d sample %d: %v vs %v", i, j, rec.Trace[j], wantRec.Trace[j])
			}
		}
	}
}

// TestDecodeIntoCopiesData pins the recycling contract: the decoded
// Record must not alias the RawRecord's buffers, because the raw
// record is returned to a pool as soon as DecodeInto returns.
func TestDecodeIntoCopiesData(t *testing.T) {
	raw := RawRecord{Data: []byte{1, 2, 3}, Codes: []byte{0x10, 0x00, 0x20, 0x00}}
	var rec Record
	raw.DecodeInto(&rec)
	raw.Data[0] = 0xFF
	raw.Codes[0] = 0xFF
	if rec.Data[0] != 1 {
		t.Fatal("DecodeInto aliased the raw Data buffer")
	}
	if rec.Trace[0] != 0x10 {
		t.Fatalf("Trace[0] = %v, want 16", rec.Trace[0])
	}
}

// TestNextRawIntoDecodeIntoAllocFree is the allocation gate of the
// read path the replay pipeline runs per frame, strict and recovering:
// once one RawRecord and one Record have grown to the capture's record
// size, reading and decoding every further record of a clean stream
// allocates nothing.
func TestNextRawIntoDecodeIntoAllocFree(t *testing.T) {
	const runs = 64
	var buf bytes.Buffer
	w, err := NewWriter(&buf, sampleHeader())
	if err != nil {
		t.Fatal(err)
	}
	tr := make(analog.Trace, 3000)
	for i := range tr {
		tr[i] = float64(i % 4096)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	for i := 0; i <= runs; i++ {
		err := w.Write(&Record{
			ECUIndex: int32(i % 3), TimeSec: float64(i), FrameID: 0x18FEF100 | uint32(i),
			Data: []byte{byte(i), 2, 3, 4, 5, 6, 7, 8}, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, recovering := range []bool{false, true} {
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if recovering {
			rd.EnableRecovery()
		}
		var raw RawRecord
		var rec Record
		allocs := testing.AllocsPerRun(runs, func() {
			if err := rd.NextRawInto(&raw); err != nil {
				t.Fatal(err)
			}
			raw.DecodeInto(&rec)
		})
		if allocs != 0 {
			t.Fatalf("recovering=%v: NextRawInto + DecodeInto allocate %.1f times per record, want 0", recovering, allocs)
		}
	}
}

// TestReleaseReturnsBufferOnce pins the read buffer's lifecycle: a
// second Release returns nothing, so two readers opened afterwards
// never share a buffer; and recovery reads through the same
// window-sized buffer, so Buffered counts every byte the reader holds.
func TestReleaseReturnsBufferOnce(t *testing.T) {
	data := reuseFixture(t)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rd.Release()
	rd.Release()
	a, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.r == b.r {
		t.Fatal("two live readers share one read buffer")
	}

	a.EnableRecovery()
	var raw RawRecord
	if err := a.NextRawInto(&raw); err != nil {
		t.Fatal(err)
	}
	if a.r.Size() != resyncWindow {
		t.Fatalf("read buffer holds %d bytes, want %d", a.r.Size(), resyncWindow)
	}
	// The header carries four magic bytes that off does not count.
	if got, want := a.Buffered(), len(data)-4-int(a.off); got != want {
		t.Fatalf("Buffered = %d after the first record, want the %d unread bytes", got, want)
	}
	a.Release()
	b.Release()
}
