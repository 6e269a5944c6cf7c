// Package edgeset implements vProfile's preprocessing stage
// (Section 3.2.1, Algorithm 1): walking the sampled voltage trace of a
// CAN frame bit by bit, staying synchronised by re-centring on every
// observed edge, skipping stuff bits, decoding the J1939 source
// address from bits 24–31, and extracting the first edge set (rising
// edge, intervening steady state, falling edge) after the arbitration
// field.
//
// It also implements the two Chapter 5 preprocessing enhancements:
// per-cluster extraction thresholds (Section 5.1) and averaging
// multiple edge sets taken from later parts of the same message
// (Section 5.2).
package edgeset

import (
	"errors"
	"fmt"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/linalg"
)

// Errors reported by extraction.
var (
	ErrNoSOF      = errors.New("edgeset: no start-of-frame found")
	ErrTruncated  = errors.New("edgeset: trace ends before the edge set")
	ErrLostSync   = errors.New("edgeset: lost bit synchronisation")
	ErrBadConfig  = errors.New("edgeset: invalid extractor configuration")
	ErrStuffError = errors.New("edgeset: stuff bit has same polarity as preceding run")
)

// Config parameterises extraction. The paper's reference values for a
// 250 kb/s bus sampled at 10 MS/s are BitWidth 40, PrefixLen 2 and
// SuffixLen 14; BitThreshold should roughly horizontally bisect the
// rising edge (38,000 for 16-bit codes on the test captures).
type Config struct {
	BitWidth     int     // samples per bit
	BitThreshold float64 // code level separating dominant from recessive
	PrefixLen    int     // samples kept before each threshold crossing
	SuffixLen    int     // samples kept after each threshold crossing

	// NumEdgeSets > 1 enables the Section 5.2 enhancement: that many
	// edge sets are extracted, each search starting EdgeSetGap samples
	// after the previous extraction point, and averaged element-wise.
	NumEdgeSets int // default 1
	EdgeSetGap  int // default 250 samples, the paper's spacing

	// Edges selects which transitions enter the vector; the default
	// EdgesBoth is the paper's edge set (rising + steady + falling).
	// The single-edge variants exist for the ablation study of the
	// design choice.
	Edges EdgeSelection
}

// EdgeSelection picks which transitions form the feature vector.
type EdgeSelection int

// Edge selections.
const (
	EdgesBoth EdgeSelection = iota
	EdgesRising
	EdgesFalling
)

// String names the selection.
func (e EdgeSelection) String() string {
	switch e {
	case EdgesRising:
		return "rising-only"
	case EdgesFalling:
		return "falling-only"
	default:
		return "both-edges"
	}
}

// ConfigFor returns the extraction parameters matched to a digitizer
// and bus bit rate, scaled from the paper's 10 MS/s reference values
// (bit width 40, prefix 2, suffix 14) with the threshold at 1.0 V,
// bisecting the rising edge.
func ConfigFor(adc analog.ADC, bitRate float64) Config {
	perBit := int(adc.SamplesPerBit(bitRate))
	scale := float64(perBit) / 40.0
	prefix := int(2 * scale)
	if prefix < 1 {
		prefix = 1
	}
	suffix := int(14 * scale)
	if suffix < 3 {
		suffix = 3
	}
	return Config{
		BitWidth:     perBit,
		BitThreshold: adc.VoltsToCode(1.0),
		PrefixLen:    prefix,
		SuffixLen:    suffix,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BitWidth < 4 {
		return fmt.Errorf("%w: bit width %d too small", ErrBadConfig, c.BitWidth)
	}
	if c.PrefixLen < 0 || c.SuffixLen <= 0 {
		return fmt.Errorf("%w: window %d+%d", ErrBadConfig, c.PrefixLen, c.SuffixLen)
	}
	if c.PrefixLen+c.SuffixLen > 4*c.BitWidth {
		return fmt.Errorf("%w: window longer than four bits", ErrBadConfig)
	}
	if c.NumEdgeSets < 0 || (c.NumEdgeSets > 1 && c.EdgeSetGap < 1) {
		return fmt.Errorf("%w: %d edge sets with gap %d", ErrBadConfig, c.NumEdgeSets, c.EdgeSetGap)
	}
	return nil
}

// numSets returns the effective edge-set count (≥ 1).
func (c Config) numSets() int {
	if c.NumEdgeSets < 1 {
		return 1
	}
	return c.NumEdgeSets
}

// Dim returns the dimensionality of extracted edge-set vectors:
// (prefix+suffix) samples per selected edge.
func (c Config) Dim() int {
	if c.Edges == EdgesBoth {
		return 2 * (c.PrefixLen + c.SuffixLen)
	}
	return c.PrefixLen + c.SuffixLen
}

// Result is one preprocessed message: the decoded source address
// paired with its edge-set vector, which together feed training and
// detection.
type Result struct {
	SA      canbus.SourceAddress
	Set     linalg.Vector
	SetAt   int              // sample index where the first edge window begins
	BitsSOF int              // sample index of the SOF threshold crossing
	Bits    canbus.BitString // decoded (destuffed) bits 0–33
}

// Extract runs Algorithm 1 on a trace that contains one frame preceded
// by recessive bus idle. Every call allocates a fresh Result whose
// buffers the caller may retain indefinitely; hot paths that process
// one frame at a time should prefer ExtractInto with a reused Scratch.
func Extract(tr analog.Trace, cfg Config) (*Result, error) {
	return ExtractInto(tr, cfg, new(Scratch))
}

// Scratch holds the working buffers of one extraction so repeated
// calls on the same Scratch stop allocating once the buffers reach
// steady-state capacity. A Scratch is not safe for concurrent use; use
// one per goroutine (ids.Composite keeps them in a sync.Pool).
type Scratch struct {
	bits canbus.BitString
	set  linalg.Vector // accumulated/averaged edge-set vector
	tmp  linalg.Vector // one edge-set window, reused across the averaging loop
	res  Result
}

// Sample is a trace element Algorithm 1 reads: a packed uint16 ADC
// code straight from a capture record, or a float64 code from a
// decoded or synthesized trace. Every sample is compared and copied as
// float64(v), and a float64 holds every uint16 exactly, so a record's
// codes and its decoded trace extract to bit-identical Results.
type Sample interface{ uint16 | float64 }

// ExtractInto is Extract over caller-owned buffers. The returned
// Result — including its Set and Bits slices — aliases the Scratch and
// is valid only until the next ExtractInto call with the same Scratch;
// callers that need to retain it must copy. The arithmetic is
// identical to Extract's, so the two produce bit-identical vectors.
func ExtractInto[E Sample](tr []E, cfg Config, s *Scratch) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dec, err := walkBits(tr, cfg, canbus.BitR1, s.bits[:0])
	if err != nil {
		return nil, err
	}
	s.bits = dec.bits
	sa := canbus.SourceAddress(dec.bits[canbus.SABitFirst : canbus.SABitLast+1].Uint())

	set, setAt, err := extractSetsInto(tr, dec.pos, cfg, s)
	if err != nil {
		return nil, err
	}
	s.res = Result{SA: sa, Set: set, SetAt: setAt, BitsSOF: dec.sof, Bits: dec.bits}
	return &s.res, nil
}

// decodeState is the traversal outcome of walkBits.
type decodeState struct {
	bits canbus.BitString
	pos  int // sample index of the centre of the last decoded bit
	sof  int
}

// walkBits ingests the trace from SOF through (and including) the
// destuffed bit lastBit, re-aligning to the centre of every edge it
// crosses and skipping stuff bits, exactly as the EXTRACT procedure of
// Algorithm 1 does. The decoded bits are appended to buf (normally a
// reused buffer truncated to length zero) and returned in the state.
func walkBits[E Sample](tr []E, cfg Config, lastBit int, buf canbus.BitString) (decodeState, error) {
	var none decodeState
	sof := findSOF(tr, cfg.BitThreshold)
	if sof < 0 {
		return none, ErrNoSOF
	}
	pos := sof + cfg.BitWidth/2
	if pos >= len(tr) {
		return none, ErrTruncated
	}
	bits := buf
	if cap(bits) < lastBit+1 {
		bits = make(canbus.BitString, 0, lastBit+1)
	}
	bits = append(bits, bitAt(tr, pos, cfg.BitThreshold))
	if bits[0] != canbus.Dominant {
		return none, fmt.Errorf("%w: SOF centre not dominant", ErrLostSync)
	}
	prev := bits[0]
	run := 1 // consecutive equal wire bits, stuff bits included
	for len(bits) <= lastBit {
		pos += cfg.BitWidth
		if pos >= len(tr) {
			return none, ErrTruncated
		}
		b := bitAt(tr, pos, cfg.BitThreshold)
		if b != prev {
			edge := alignToEdgeCentre(tr, pos, cfg)
			if edge < 0 {
				return none, ErrLostSync
			}
			pos = edge + cfg.BitWidth/2
			if pos >= len(tr) {
				return none, ErrTruncated
			}
			run = 1
		} else {
			run++
		}
		bits = append(bits, b)
		prev = b
		if run == canbus.StuffLimit {
			// Consume the stuff bit: advance one bit time, verify the
			// polarity flip, realign on its edge, and do not append.
			pos += cfg.BitWidth
			if pos >= len(tr) {
				return none, ErrTruncated
			}
			sb := bitAt(tr, pos, cfg.BitThreshold)
			if sb == prev {
				return none, ErrStuffError
			}
			edge := alignToEdgeCentre(tr, pos, cfg)
			if edge < 0 {
				return none, ErrLostSync
			}
			pos = edge + cfg.BitWidth/2
			if pos >= len(tr) {
				return none, ErrTruncated
			}
			prev = sb
			run = 1
		}
	}
	return decodeState{bits: bits, pos: pos, sof: sof}, nil
}

// WireBits samples tr at bit centres from its SOF crossing to its end
// and appends the wire bits, stuff bits included, to buf: the stream
// canbus.DecodeFrame parses. Like walkBits it re-centres on every edge
// it crosses, so the sampling point follows the sender's clock across
// the frame. A trace with no SOF leaves buf unchanged.
func WireBits[E Sample](tr []E, cfg Config, buf canbus.BitString) canbus.BitString {
	sof := findSOF(tr, cfg.BitThreshold)
	if sof < 0 {
		return buf
	}
	prev := canbus.Dominant
	for pos := sof + cfg.BitWidth/2; pos < len(tr); pos += cfg.BitWidth {
		b := bitAt(tr, pos, cfg.BitThreshold)
		if b != prev {
			if edge := alignToEdgeCentre(tr, pos, cfg); edge >= 0 {
				pos = edge + cfg.BitWidth/2
			}
		}
		buf = append(buf, b)
		prev = b
	}
	return buf
}

// findSOF returns the index of the first dominant sample — the
// idle→dominant SOF transition — or −1 if none exists.
func findSOF[E Sample](tr []E, threshold float64) int {
	for i, v := range tr {
		if float64(v) >= threshold {
			return i
		}
	}
	return -1
}

// bitAt applies the GetBitValue rule: at or above the threshold the
// bus is dominant ('0'), below it recessive ('1').
func bitAt[E Sample](tr []E, pos int, threshold float64) canbus.Bit {
	if float64(tr[pos]) >= threshold {
		return canbus.Dominant
	}
	return canbus.Recessive
}

// alignToEdgeCentre locates the threshold crossing that produced the
// polarity change observed at pos by scanning backwards up to a little
// over one bit width. It returns the crossing index (first sample on
// the new polarity) or −1.
func alignToEdgeCentre[E Sample](tr []E, pos int, cfg Config) int {
	cur := bitAt(tr, pos, cfg.BitThreshold)
	limit := pos - cfg.BitWidth - cfg.BitWidth/2
	if limit < 0 {
		limit = 0
	}
	for i := pos; i > limit; i-- {
		if bitAt(tr, i-1, cfg.BitThreshold) != cur {
			return i
		}
	}
	return -1
}

// extractSetsInto extracts cfg.numSets() edge sets beginning at pos
// (the centre of the first bit after the arbitration field) and
// returns their element-wise mean together with the sample index of
// the first window. The returned vector is s.set, resized and reused;
// the averaging divides in place by the same factor the allocating
// path used, so the values are bit-identical.
func extractSetsInto[E Sample](tr []E, pos int, cfg Config, s *Scratch) (linalg.Vector, int, error) {
	n := cfg.numSets()
	dim := cfg.Dim()
	if cap(s.set) < dim {
		s.set = make(linalg.Vector, dim)
	}
	sum := s.set[:dim]
	clear(sum)
	firstAt := -1
	searchFrom := pos
	for k := 0; k < n; k++ {
		set, at, err := extractOneSetInto(tr, searchFrom, cfg, s.tmp[:0])
		s.tmp = set[:0]
		if err != nil {
			return nil, 0, err
		}
		if k == 0 {
			firstAt = at
		}
		for i, v := range set {
			sum[i] += v
		}
		searchFrom = at + cfg.EdgeSetGap
		if searchFrom >= len(tr) {
			if k+1 < n {
				return nil, 0, ErrTruncated
			}
		}
	}
	if n > 1 {
		inv := 1 / float64(n)
		for i := range sum {
			sum[i] *= inv
		}
	}
	return sum, firstAt, nil
}

// extractOneSetInto implements the EXTRACTEDGESET procedure: advance
// to the next rising threshold crossing, window it, advance past half
// a bit and to the next falling crossing, window that, and
// concatenate. The window is appended to out (normally a reused buffer
// truncated to length zero).
func extractOneSetInto[E Sample](tr []E, pos int, cfg Config, out linalg.Vector) (linalg.Vector, int, error) {
	th := cfg.BitThreshold
	// If we start inside a dominant stretch, first reach recessive so
	// the next crossing is genuinely a rising edge.
	for pos < len(tr) && float64(tr[pos]) >= th {
		pos++
	}
	// Rising edge: first sample at or above the threshold.
	for pos < len(tr) && float64(tr[pos]) < th {
		pos++
	}
	if pos >= len(tr) || pos-cfg.PrefixLen < 0 || pos+cfg.SuffixLen > len(tr) {
		return out, 0, ErrTruncated
	}
	setAt := pos - cfg.PrefixLen
	if cfg.Edges != EdgesFalling {
		out = appendWindow(out, tr[pos-cfg.PrefixLen:pos+cfg.SuffixLen])
	}
	if cfg.Edges == EdgesRising {
		return out, setAt, nil
	}

	// Falling edge: step into the dominant region, then take the first
	// sample below the threshold.
	pos += cfg.BitWidth / 2
	for pos < len(tr) && float64(tr[pos]) >= th {
		pos++
	}
	if pos >= len(tr) || pos+cfg.SuffixLen > len(tr) {
		return out, 0, ErrTruncated
	}
	out = appendWindow(out, tr[pos-cfg.PrefixLen:pos+cfg.SuffixLen])
	return out, setAt, nil
}

// appendWindow appends one edge window to out, converting each sample
// to float64.
func appendWindow[E Sample](out linalg.Vector, w []E) linalg.Vector {
	for _, v := range w {
		out = append(out, float64(v))
	}
	return out
}

// ClusterThreshold computes the Section 5.1 per-cluster extraction
// threshold: the midpoint of the maximum and minimum sample values in
// the first half of the message, which stays clear of the ACK slot
// whose level can deviate from the rest of the frame.
func ClusterThreshold(tr analog.Trace) float64 {
	half := tr[:len(tr)/2]
	if len(half) == 0 {
		half = tr
	}
	mn, mx := half[0], half[0]
	for _, v := range half {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return (mn + mx) / 2
}
