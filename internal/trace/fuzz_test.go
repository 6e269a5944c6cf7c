package trace_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"vprofile/internal/faults"
	"vprofile/internal/trace"
)

// FuzzReaderResync throws arbitrary bytes at both reader modes. The
// strict reader may reject the stream however it likes but must never
// panic; the recovering reader must additionally never surface any
// error other than io.EOF — corruption is its job to absorb — and its
// corruption reports must stay internally consistent.
func FuzzReaderResync(f *testing.F) {
	clean, _, _ := resyncFixture(f, 6)
	f.Add(clean)
	for seed := int64(1); seed <= 3; seed++ {
		hurt, _ := faults.CorruptStream(clean, faults.StreamSpec{Flips: 4, Garbage: 2, Chops: 2, Truncate: seed == 2}, seed)
		f.Add(hurt)
	}
	f.Add([]byte("VPTR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Strict mode: errors are fine, panics are not.
		if rd, err := trace.NewReader(bytes.NewReader(data)); err == nil {
			var rec trace.RawRecord
			for {
				if err := rd.NextRawInto(&rec); err != nil {
					break
				}
			}
		}

		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		rd.EnableRecovery()
		records := 0
		var rec trace.RawRecord
		for {
			if err := rd.NextRawInto(&rec); err != nil {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("recovering reader surfaced %v", err)
				}
				break
			}
			records++
			if records > len(data) {
				t.Fatalf("decoded %d records from %d bytes", records, len(data))
			}
		}
		var skipped int64
		for _, rep := range rd.Corruptions() {
			if rep.Skipped < 0 || rep.Offset < 0 {
				t.Fatalf("negative accounting in report %+v", rep)
			}
			skipped += rep.Skipped
		}
		if skipped > int64(len(data)) {
			t.Fatalf("reports claim %d bytes skipped from a %d-byte stream", skipped, len(data))
		}
	})
}

// FuzzNextRawInto checks buffer reuse on arbitrary bytes: one
// RawRecord, reused across the whole stream — growing, shrinking, and
// left half-filled by a failed read — must yield exactly what
// NextRawInto into a fresh RawRecord per call yields, record for
// record and error for error, in strict and recovering mode alike.
func FuzzNextRawInto(f *testing.F) {
	clean, _, _ := resyncFixture(f, 6)
	f.Add(clean)
	for seed := int64(1); seed <= 3; seed++ {
		hurt, _ := faults.CorruptStream(clean, faults.StreamSpec{Flips: 4, Garbage: 2, Chops: 2, Truncate: seed == 2}, seed)
		f.Add(hurt)
	}
	f.Add([]byte("VPTR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, recovering := range []bool{false, true} {
			ra, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				return
			}
			rb, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("second reader over the same header failed: %v", err)
			}
			if recovering {
				ra.EnableRecovery()
				rb.EnableRecovery()
			}
			var raw trace.RawRecord
			for i := 0; ; i++ {
				want := new(trace.RawRecord)
				wantErr := ra.NextRawInto(want)
				gotErr := rb.NextRawInto(&raw)
				if errText(wantErr) != errText(gotErr) {
					t.Fatalf("recovering=%v record %d: fresh read err %v, reused read err %v", recovering, i, wantErr, gotErr)
				}
				if wantErr != nil {
					break
				}
				if raw.ECUIndex != want.ECUIndex || raw.FrameID != want.FrameID ||
					math.Float64bits(raw.TimeSec) != math.Float64bits(want.TimeSec) {
					t.Fatalf("recovering=%v record %d header: %+v vs %+v", recovering, i, raw, *want)
				}
				if !bytes.Equal(raw.Data, want.Data) || !bytes.Equal(raw.Codes, want.Codes) {
					t.Fatalf("recovering=%v record %d payload mismatch", recovering, i)
				}
				if i > len(data) {
					t.Fatalf("decoded %d records from %d bytes", i, len(data))
				}
			}
			if !reflect.DeepEqual(ra.Corruptions(), rb.Corruptions()) {
				t.Fatalf("corruption reports differ: %+v vs %+v", ra.Corruptions(), rb.Corruptions())
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
