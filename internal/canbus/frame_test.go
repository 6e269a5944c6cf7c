package canbus

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJ1939IDRoundTrip(t *testing.T) {
	id := J1939ID{Priority: 3, PGN: PGNElectronicEngine1, SA: SAEngine}
	raw, err := id.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeJ1939ID(raw); got != id {
		t.Fatalf("round trip: got %+v want %+v", got, id)
	}
}

func TestJ1939IDFieldOverflow(t *testing.T) {
	if _, err := (J1939ID{Priority: 8}).Encode(); err == nil {
		t.Error("priority 8 accepted")
	}
	if _, err := (J1939ID{PGN: 1 << 18}).Encode(); err == nil {
		t.Error("19-bit PGN accepted")
	}
}

func TestJ1939IDPriorityOrdersArbitration(t *testing.T) {
	// Lower priority value → numerically smaller ID → wins wired-AND
	// arbitration.
	hi := J1939ID{Priority: 0, PGN: PGNTorqueSpeedControl, SA: SAEngine}.MustEncode()
	lo := J1939ID{Priority: 7, PGN: PGNTorqueSpeedControl, SA: SAEngine}.MustEncode()
	if hi >= lo {
		t.Fatalf("priority 0 ID %#x not below priority 7 ID %#x", hi, lo)
	}
}

func TestJ1939IDPropertyRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		raw &= 1<<29 - 1
		enc, err := DecodeJ1939ID(raw).Encode()
		return err == nil && enc == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameValidate(t *testing.T) {
	f := &ExtendedFrame{ID: 1 << 29}
	if err := f.Validate(); !errors.Is(err, ErrIDRange) {
		t.Errorf("30-bit ID: got %v", err)
	}
	f = &ExtendedFrame{ID: 1, Data: make([]byte, 9)}
	if err := f.Validate(); !errors.Is(err, ErrDataLength) {
		t.Errorf("9-byte data: got %v", err)
	}
}

func TestFrameSA(t *testing.T) {
	id := J1939ID{Priority: 6, PGN: PGNCruiseControl, SA: 0x31}
	f, err := NewJ1939Frame(id, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.SA() != 0x31 {
		t.Fatalf("SA() = %#x", f.SA())
	}
}

func TestFrameSAOccupiesBits24To31(t *testing.T) {
	// The paper's extraction algorithm reads the SA from unstuffed
	// bits 24–31 (SOF = bit 0). Verify the layout matches.
	id := J1939ID{Priority: 6, PGN: PGNCruiseControl, SA: 0xA5}
	f, err := NewJ1939Frame(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := f.UnstuffedBits()
	if err != nil {
		t.Fatal(err)
	}
	got := SourceAddress(bits[SABitFirst : SABitLast+1].Uint())
	if got != 0xA5 {
		t.Fatalf("SA at bits 24–31 = %#x, want 0xA5", got)
	}
}

func TestFrameFixedFormBits(t *testing.T) {
	f, err := NewJ1939Frame(J1939ID{Priority: 0, PGN: 0, SA: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := f.UnstuffedBits()
	if err != nil {
		t.Fatal(err)
	}
	if bits[BitSOF] != Dominant {
		t.Error("SOF not dominant")
	}
	if bits[BitSRR] != Recessive || bits[BitIDE] != Recessive {
		t.Error("SRR/IDE not recessive")
	}
	if bits[BitRTR] != Dominant || bits[BitR1] != Dominant || bits[BitR0] != Dominant {
		t.Error("RTR/r1/r0 not dominant")
	}
	for i := len(bits) - EOFLength; i < len(bits); i++ {
		if bits[i] != Recessive {
			t.Fatalf("EOF bit %d not recessive", i)
		}
	}
}

func TestFrameBitLength(t *testing.T) {
	for n := 0; n <= 8; n++ {
		f := &ExtendedFrame{ID: 0x18FEF100, Data: make([]byte, n)}
		bits, err := f.UnstuffedBits()
		if err != nil {
			t.Fatal(err)
		}
		if len(bits) != FrameBitLength(n) {
			t.Fatalf("n=%d: len=%d want %d", n, len(bits), FrameBitLength(n))
		}
	}
}

func TestFrameWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(9)
		data := make([]byte, n)
		rng.Read(data)
		f := &ExtendedFrame{ID: rng.Uint32() & (1<<29 - 1), Data: data}
		wire, err := f.WireBits(true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(wire)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.ID != f.ID {
			t.Fatalf("trial %d: ID %#x != %#x", trial, got.ID, f.ID)
		}
		if string(got.Data) != string(f.Data) {
			t.Fatalf("trial %d: data mismatch", trial)
		}
	}
}

func TestDecodeFrameDetectsCorruption(t *testing.T) {
	f := &ExtendedFrame{ID: 0x0CF00400, Data: []byte{0x10, 0x20, 0x30}}
	wire, err := f.WireBits(false)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	// Flip each bit in the stuffed CRC-protected region and require
	// either a decode error or (never) a silent wrong frame.
	for i := 1; i < len(wire)-EOFLength-3; i++ {
		mut := make(BitString, len(wire))
		copy(mut, wire)
		mut[i] ^= 1
		got, err := DecodeFrame(mut)
		if err != nil {
			detected++
			continue
		}
		if got.ID == f.ID && string(got.Data) == string(f.Data) {
			t.Fatalf("flip at stuffed bit %d silently ignored", i)
		}
		t.Fatalf("flip at stuffed bit %d produced a different valid frame", i)
	}
	if detected == 0 {
		t.Fatal("no corruption detected at all")
	}
}

func TestDecodeFrameShort(t *testing.T) {
	if _, err := DecodeFrame(make(BitString, 5)); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestArbitrationLowestIDWins(t *testing.T) {
	mk := func(id uint32) *ExtendedFrame { return &ExtendedFrame{ID: id} }
	res := Arbitrate([]Contender{
		{Tag: 1, Frame: mk(0x18FEF117)}, // lower priority
		{Tag: 2, Frame: mk(0x0CF00400)}, // higher priority (smaller ID)
		{Tag: 3, Frame: mk(0x18FEF100)},
	})
	if res.WinnerTag != 2 {
		t.Fatalf("winner tag = %d, want 2", res.WinnerTag)
	}
	if len(res.LostAtBit) != 2 {
		t.Fatalf("losers = %v", res.LostAtBit)
	}
	for tag, bit := range res.LostAtBit {
		if bit < 1 || bit > 40 {
			t.Errorf("tag %d lost at implausible bit %d", tag, bit)
		}
	}
}

func TestArbitrationPropertyMinIDWins(t *testing.T) {
	f := func(a, b, c uint32) bool {
		ids := []uint32{a & (1<<29 - 1), b & (1<<29 - 1), c & (1<<29 - 1)}
		if ids[0] == ids[1] || ids[1] == ids[2] || ids[0] == ids[2] {
			return true // skip duplicate-ID contention
		}
		cs := make([]Contender, len(ids))
		minTag, minID := -1, uint32(1<<30)
		for i, id := range ids {
			cs[i] = Contender{Tag: i, Frame: &ExtendedFrame{ID: id}}
			if id < minID {
				minID, minTag = id, i
			}
		}
		return Arbitrate(cs).WinnerTag == minTag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArbitrationSingleAndEmpty(t *testing.T) {
	if got := Arbitrate(nil).WinnerTag; got != -1 {
		t.Fatalf("empty contention winner = %d", got)
	}
	res := Arbitrate([]Contender{{Tag: 9, Frame: &ExtendedFrame{ID: 5}}})
	if res.WinnerTag != 9 {
		t.Fatalf("single contender winner = %d", res.WinnerTag)
	}
}

func TestArbitrationIdenticalIDsDeterministic(t *testing.T) {
	res := Arbitrate([]Contender{
		{Tag: 4, Frame: &ExtendedFrame{ID: 0x100}},
		{Tag: 2, Frame: &ExtendedFrame{ID: 0x100}},
	})
	if res.WinnerTag != 2 {
		t.Fatalf("identical IDs: winner = %d, want lowest tag 2", res.WinnerTag)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	frame := &ExtendedFrame{ID: 0x18FEF100, Data: []byte{1, 2, 3}}
	wire, _ := frame.WireBits(true)
	seed := make([]byte, len(wire))
	for i, b := range wire {
		seed[i] = byte(b)
	}
	f.Add(seed)
	f.Add([]byte{0, 1, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bits := make(BitString, len(raw))
		for i, b := range raw {
			bits[i] = Bit(b & 1)
		}
		// Must never panic; errors are fine.
		fr, err := DecodeFrame(bits)
		if err == nil && fr.ID >= 1<<29 {
			t.Fatalf("decoded out-of-range ID %#x", fr.ID)
		}
	})
}
