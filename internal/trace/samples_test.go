package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
	"unsafe"
)

// TestSamplesMatchesDecode checks the codes view against DecodeInto on
// every record of the reuse fixture, and that on a little-endian host
// the view of an aligned record aliases Codes instead of copying.
func TestSamplesMatchesDecode(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(reuseFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	var raw RawRecord
	var rec Record
	for i := 0; ; i++ {
		if err := rd.NextRawInto(&raw); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		raw.DecodeInto(&rec)
		view := raw.Samples()
		if len(view) != len(rec.Trace) {
			t.Fatalf("record %d: %d samples in view, %d decoded", i, len(view), len(rec.Trace))
		}
		for j, c := range view {
			if float64(c) != rec.Trace[j] {
				t.Fatalf("record %d sample %d: view %d, decoded %v", i, j, c, rec.Trace[j])
			}
		}
		if hostLittleEndian && len(view) > 0 && unsafe.Pointer(&view[0]) != unsafe.Pointer(&raw.Codes[0]) {
			t.Fatalf("record %d: view copied an aligned little-endian record", i)
		}
	}
}

// TestSamplesCopyingFallback drives the view's copying path on every
// host through an odd-aligned Codes slice: it must hold the same codes
// as the in-place view of the same bytes, ignore an odd trailing byte,
// not alias Codes, and keep working as its buffer is reused for
// records that shrink and grow.
func TestSamplesCopyingFallback(t *testing.T) {
	var fallback RawRecord
	for _, n := range []int{0, 1, 7, 3020, 5, 4096} {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(i*7919 + n)
		}
		aligned := make([]byte, 2*n, 2*n+1)
		for i, c := range codes {
			binary.LittleEndian.PutUint16(aligned[2*i:], c)
		}
		backing := make([]byte, 2*n+2)
		odd := backing[1 : 2*n+2] // 2n code bytes plus one trailing byte
		copy(odd, aligned)
		odd[2*n] = 0xA5
		if n > 0 && uintptr(unsafe.Pointer(&odd[0]))%2 == 0 {
			t.Fatal("test slice is not odd-aligned")
		}

		fallback.Codes = odd
		for pass := 0; pass < 2; pass++ {
			got := fallback.Samples()
			want := (&RawRecord{Codes: aligned}).Samples()
			if !slices.Equal(got, codes) || !slices.Equal(want, codes) {
				t.Fatalf("n=%d pass %d: fallback %v, in place %v, want %v", n, pass, head(got), head(want), head(codes))
			}
			if n > 0 && unsafe.Pointer(&got[0]) == unsafe.Pointer(&odd[0]) {
				t.Fatalf("n=%d: fallback aliases odd-aligned Codes", n)
			}
		}
	}
}

func head(s []uint16) []uint16 { return s[:min(len(s), 8)] }
