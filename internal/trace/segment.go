package trace

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"vprofile/internal/canbus"
	"vprofile/internal/edgeset"
)

const (
	// maxFrameBits bounds one segmented frame: a frame that has not
	// ended 160 bit widths after its SOF is cut there, comfortably above
	// the longest stuffed extended frame.
	maxFrameBits = 160
	// idleBits bit times of recessive bus end a frame: EOF and
	// intermission are longer, and no stuffed frame body holds such a
	// run.
	idleBits = 9
)

// Segmenter cuts a raw digitizer feed into capture records, so a live
// ADC sample stream replays through the same reader, session and
// detectors as a capture file or a socket feed. It reads packed
// little-endian uint16 codes (the packing of RawRecord.Codes) and is
// itself an io.Reader of a capture stream: the header, then one record
// per frame.
//
// Segmentation: the first sample at or above the 1.0 V threshold is a
// frame's SOF; 9 bit times of idle end it, and a frame still running
// maxFrameBits bit widths after its SOF is cut there. A record's Codes
// are the span from one bit width before the SOF to the frame's end,
// byte for byte; TimeSec is the SOF's absolute sample index over the
// sample rate; ECUIndex is −1 (a live feed has no ground truth);
// FrameID and Data are decoded from the wire bits. A span that does not
// decode as a frame, and a frame still in flight when the feed ends,
// is counted in Skipped instead of emitted, so frames sent = records +
// Skipped. The segmenter holds at most 2×maxFrameBits bit widths of
// samples.
//
// A Segmenter is not safe for concurrent reads; Skipped may be read
// from any goroutine.
type Segmenter struct {
	src     io.Reader
	cfg     edgeset.Config
	rate    float64
	maxSpan int // samples from a SOF at which a runaway frame is cut
	endIdle int

	// raw holds packed codes from raw[start:]; it may end in half a
	// code. base is the absolute sample index of raw[start].
	raw   []byte
	start int
	base  int64
	view  RawRecord // Samples view over the live codes
	// The scan resumes where the last read left it: next is the first
	// sample held not yet examined, sof the held frame's SOF (−1 while
	// the bus is idle) and run the idle samples since its last
	// dominant one.
	next, sof, run int

	bits canbus.BitString // wire bits of the frame being decoded

	out     bytes.Buffer // encoded capture bytes not yet read
	w       *Writer
	skipped atomic.Int64
	err     error // sticky: returned once out drains
}

// NewSegmenter returns a capture stream segmented from samples, a feed
// digitized as h describes. The bit width and threshold come from h
// through edgeset.ConfigFor, as engine.ExtractionFor derives them; a
// header they do not validate for fails the first Read.
func NewSegmenter(h Header, samples io.Reader) *Segmenter {
	cfg := edgeset.ConfigFor(h.ADC, h.BitRate)
	s := &Segmenter{src: samples, cfg: cfg, rate: h.ADC.SampleRate, sof: -1}
	if err := cfg.Validate(); err != nil {
		s.err = fmt.Errorf("trace: segmenter: %w", err)
		return s
	}
	if cfg.BitWidth > maxSaneSamples/(maxFrameBits+1) {
		s.err = fmt.Errorf("trace: segmenter: %d samples per bit spans records no reader accepts", cfg.BitWidth)
		return s
	}
	s.maxSpan = maxFrameBits * cfg.BitWidth
	s.endIdle = idleBits * cfg.BitWidth
	w, err := NewWriter(&s.out, h)
	if err == nil {
		err = w.Flush()
	}
	s.w, s.err = w, err
	return s
}

// Skipped counts the frames cut from the feed that produced no record:
// spans that did not decode, and a frame in flight at end of input.
func (s *Segmenter) Skipped() int64 { return s.skipped.Load() }

// Read implements io.Reader over the segmented capture stream. It
// returns io.EOF after the record of the feed's last complete frame,
// and the feed's own error if it failed.
func (s *Segmenter) Read(p []byte) (int, error) {
	for s.out.Len() == 0 {
		if s.err != nil {
			return 0, s.err
		}
		s.err = s.fill()
	}
	return s.out.Read(p)
}

// fill reads the next stretch of the feed into the buffer, up to its
// bound, and writes every frame that stretch completes.
func (s *Segmenter) fill() error {
	n := copy(s.raw, s.raw[s.start:])
	s.raw, s.start = s.raw[:n], 0
	limit := 2 * 2 * s.maxSpan // bytes of 2×maxSpan samples
	if cap(s.raw) < limit {
		s.raw = append(make([]byte, 0, limit), s.raw...)
	}
	k, rerr := s.src.Read(s.raw[n:limit])
	s.raw = s.raw[:n+k]
	if err := s.cut(); err != nil {
		return err
	}
	if rerr == io.EOF && s.sof >= 0 {
		s.skipped.Add(1)
	}
	return rerr
}

// drop discards the first k samples held.
func (s *Segmenter) drop(k int) {
	s.start += 2 * k
	s.base += int64(k)
	s.next -= k
	if s.sof >= 0 {
		s.sof -= k
	}
}

// cut writes every complete frame held, keeping one bit width of idle
// ahead of the next SOF as the extractor's lead-in.
func (s *Segmenter) cut() error {
	bw, th := s.cfg.BitWidth, s.cfg.BitThreshold
	for {
		live := s.raw[s.start:]
		s.view.Codes = live[:len(live)&^1]
		buf := s.view.Samples()
		if s.sof < 0 {
			for ; s.next < len(buf) && float64(buf[s.next]) < th; s.next++ {
			}
			if s.next == len(buf) {
				if len(buf) > bw {
					s.drop(len(buf) - bw)
				}
				return nil
			}
			s.sof, s.run = s.next, 0
			if s.sof > bw {
				s.drop(s.sof - bw)
			}
			continue
		}
		end := -1
		for ; end < 0 && s.next < len(buf); s.next++ {
			if float64(buf[s.next]) < th {
				s.run++
			} else {
				s.run = 0
			}
			// A frame ends after its idle run, or at the runaway bound.
			if s.run >= s.endIdle || s.next+1-s.sof >= s.maxSpan {
				end = s.next + 1
			}
		}
		if end < 0 {
			return nil // frame still in flight
		}
		if err := s.emit(buf[:end], s.sof); err != nil {
			return err
		}
		s.sof = -1
		s.drop(end)
	}
}

// emit decodes the span (lead-in, then the frame from buf[sof]) and
// writes its record, or counts it as skipped.
func (s *Segmenter) emit(span []uint16, sof int) error {
	s.bits = edgeset.WireBits(span, s.cfg, s.bits[:0])
	f, err := canbus.DecodeFrame(s.bits)
	if err != nil {
		s.skipped.Add(1)
		return nil
	}
	err = s.w.writeRaw(&RawRecord{
		ECUIndex: -1,
		TimeSec:  float64(s.base+int64(sof)) / s.rate,
		FrameID:  f.ID,
		Data:     f.Data,
		Codes:    s.raw[s.start : s.start+2*len(span)],
	})
	if err != nil {
		return err
	}
	return s.w.Flush()
}
