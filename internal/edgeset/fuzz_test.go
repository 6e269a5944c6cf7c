package edgeset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
)

// FuzzExtract drives Algorithm 1 with arbitrary byte soup interpreted
// as a packed little-endian code trace, the capture format: extraction
// must never panic, any frame it does decode must report an in-range
// source address, and extracting from the uint16 codes must give the
// same Result and error as extracting from the float64 trace they
// decode to. An odd trailing byte is dropped, as the capture reader's
// decode does.
func FuzzExtract(f *testing.F) {
	// Seed with a genuine trace so the fuzzer starts from the happy
	// path.
	tx := testTx()
	frame, err := canbus.NewJ1939Frame(canbus.J1939ID{Priority: 3, PGN: canbus.PGNElectronicEngine1, SA: 0x42}, []byte{1, 2})
	if err == nil {
		cfg := analog.SynthConfig{ADC: testADC(), BitRate: 250e3, LeadIdleBits: 3, MaxSamples: 2200}
		if tr, err := analog.SynthesizeFrame(tx, frame, cfg, tx.NominalEnvironment(), testRNG()); err == nil {
			seed := make([]byte, 0, len(tr)*2)
			for _, c := range tr {
				v := uint16(c)
				seed = append(seed, byte(v), byte(v>>8))
			}
			f.Add(seed)
			f.Add(append(seed, 0xA5)) // odd length: the last byte is no code
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00})

	cfg := testCfgForFuzz()
	f.Fuzz(func(t *testing.T, raw []byte) {
		codes := make([]uint16, len(raw)/2)
		tr := make(analog.Trace, len(codes))
		for i := range codes {
			codes[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
			tr[i] = float64(codes[i])
		}
		res, err := Extract(tr, cfg)
		fromCodes, codesErr := ExtractInto(codes, cfg, new(Scratch))
		if fmt.Sprint(codesErr) != fmt.Sprint(err) {
			t.Fatalf("codes extract error %v, floats %v", codesErr, err)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(fromCodes, res) {
			t.Fatalf("codes extract %+v, floats %+v", fromCodes, res)
		}
		if len(res.Set) != cfg.Dim() {
			t.Fatalf("edge set has %d dims, config says %d", len(res.Set), cfg.Dim())
		}
		if res.SetAt < 0 || res.SetAt >= len(tr) {
			t.Fatalf("edge set at impossible index %d of %d", res.SetAt, len(tr))
		}
	})
}

// helpers shared with the fuzz target (the main test file's helpers
// take *testing.T, which fuzz seeding cannot supply).
func testRNG() *rand.Rand { return rand.New(rand.NewSource(99)) }

func testCfgForFuzz() Config {
	adc := testADC()
	return Config{BitWidth: 40, BitThreshold: adc.VoltsToCode(1.0), PrefixLen: 2, SuffixLen: 14}
}
