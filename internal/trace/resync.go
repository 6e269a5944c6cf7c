package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// RecoveredCorruption is one corrupt stretch the recovering reader
// skipped: where it was detected, how many bytes were discarded
// before the stream re-synchronised, and the parse error that exposed
// it. "Recovered" is literal — the reader kept going; the report
// exists so callers can account for the loss instead of silently
// absorbing it.
type RecoveredCorruption struct {
	// Offset is the byte position in the uncompressed stream at which
	// the corruption was detected (i.e. where the failing parse
	// stopped consuming).
	Offset int64
	// Skipped is the number of bytes discarded while scanning for the
	// next plausible record boundary. Zero means the very next byte
	// already re-synchronised.
	Skipped int64
	// Err is the parse failure that triggered recovery.
	Err error
}

// resyncWindow is the look-ahead the recovering reader scans for a
// record boundary before giving up on that stretch and sliding
// forward, and the size of every reader's read buffer. It comfortably
// covers a dozen typical records.
const resyncWindow = 64 << 10

// minHeaderLen is the fixed-field prefix of a record: ECU (4) +
// time (8) + frame id (4) + data length (2); the sample count (4)
// follows the variable-length data.
const minHeaderLen = 18

// EnableRecovery switches the reader into degraded-tolerant mode:
// instead of aborting on the first corrupt record, NextRawInto (and
// Next) scans forward for the next plausible record boundary, resumes
// there, and files a RecoveredCorruption report. Mid-record EOF is
// reported and then surfaced as a clean io.EOF, so a truncated
// capture yields every record before the cut.
//
// Recovery is heuristic — the format carries no per-record sync
// marker — so a boundary is accepted only when the candidate record's
// fields all pass sanity bounds and, when the look-ahead window
// allows, the following record header is plausible too.
//
// The scan peeks through the reader's own read buffer, which is
// resyncWindow bytes, so recovery adds no second buffer and Buffered
// stays truthful.
func (r *Reader) EnableRecovery() { r.recover = true }

// Corruptions returns a copy of the corrupt stretches recovered so
// far. It is safe to call from another goroutine while the stream is
// still being read — status snapshots of a live session do exactly
// that.
func (r *Reader) Corruptions() []RecoveredCorruption {
	r.repMu.Lock()
	defer r.repMu.Unlock()
	if len(r.reports) == 0 {
		return nil
	}
	out := make([]RecoveredCorruption, len(r.reports))
	copy(out, r.reports)
	return out
}

// nextRawRecovering is NextRawInto in recovery mode: parse into rec,
// and on corruption record the damage, resync and parse into rec
// again. A failed parse may leave rec half-filled; the retry
// overwrites every field.
func (r *Reader) nextRawRecovering(rec *RawRecord) error {
	for {
		err := r.nextRawOnceInto(rec)
		if err == nil || errors.Is(err, io.EOF) {
			return err
		}
		report := RecoveredCorruption{Offset: r.off, Err: err}
		// A parse that died on end-of-stream is a truncated capture:
		// nothing to scan for, so report it and end cleanly.
		if truncated(err) {
			r.fileReport(report)
			return io.EOF
		}
		skipped, found := r.resync()
		report.Skipped = skipped
		r.fileReport(report)
		if !found {
			return io.EOF
		}
	}
}

// truncated reports whether a record parse failed because the stream
// ended inside the record.
func truncated(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// fileReport records one corruption in the reader's report list and
// its metrics.
func (r *Reader) fileReport(report RecoveredCorruption) {
	r.repMu.Lock()
	r.reports = append(r.reports, report)
	r.repMu.Unlock()
	if m := r.metrics; m != nil && m.Corruptions != nil {
		m.Corruptions.Inc()
		m.ResyncBytes.Add(report.Skipped)
	}
}

// resync discards bytes until the stream front looks like a record
// boundary. It returns the bytes skipped and whether a boundary was
// found before the stream ran out.
func (r *Reader) resync() (skipped int64, found bool) {
	for {
		buf, _ := r.r.Peek(resyncWindow)
		if len(buf) < minHeaderLen+4 {
			n, _ := r.r.Discard(len(buf))
			r.off += int64(n)
			return skipped + int64(n), false
		}
		limit := len(buf) - (minHeaderLen + 4)
		for k := 0; k <= limit; k++ {
			if plausibleRecord(buf[k:], true) {
				n, _ := r.r.Discard(k)
				r.off += int64(n)
				return skipped + int64(n), true
			}
		}
		// No boundary in this window: slide forward, keeping a header's
		// worth of tail so a boundary straddling the window edge is
		// still seen next round.
		n, _ := r.r.Discard(limit + 1)
		r.off += int64(n)
		skipped += int64(n)
		if n < limit+1 {
			return skipped, false
		}
	}
}

// Plausibility bounds for record fields. They are deliberately loose —
// their job is to reject random bytes (which they do with high
// probability, mostly on the data-length and sample-count fields),
// not to validate semantics.
const (
	plausibleMaxECU     = 1 << 12 // far above any roster, far below random int32
	plausibleMaxTimeSec = 1e7     // ~115 days of capture
	plausibleMaxFrameID = 1 << 29 // 29-bit extended CAN identifier
)

// plausibleRecord reports whether b starts with a believable record.
// When the full record fits in b, the header of the following record
// is checked too (one level deep — deep=false stops the recursion).
func plausibleRecord(b []byte, deep bool) bool {
	if len(b) < minHeaderLen+4 {
		return false
	}
	ecu := int32(binary.LittleEndian.Uint32(b[0:4]))
	if ecu < -2 || ecu >= plausibleMaxECU {
		return false
	}
	t := math.Float64frombits(binary.LittleEndian.Uint64(b[4:12]))
	if math.IsNaN(t) || t < 0 || t > plausibleMaxTimeSec {
		return false
	}
	if binary.LittleEndian.Uint32(b[12:16]) >= plausibleMaxFrameID {
		return false
	}
	dataLen := int(binary.LittleEndian.Uint16(b[16:18]))
	if dataLen > 8 {
		return false
	}
	if len(b) < minHeaderLen+dataLen+4 {
		return false
	}
	n := binary.LittleEndian.Uint32(b[minHeaderLen+dataLen:])
	if n > maxSaneSamples {
		return false
	}
	if !deep {
		return true
	}
	end := minHeaderLen + dataLen + 4 + 2*int(n)
	if end > len(b) {
		// Record runs past the window: the header alone has to carry
		// the decision.
		return true
	}
	rest := b[end:]
	if len(rest) < minHeaderLen+4 {
		// Too little left to verify a follower either way — a clean
		// final record at EOF, or a follower straddling the window
		// edge mid-stream. The candidate itself parses; accept it and
		// let any trailing garbage report as its own corruption.
		return true
	}
	return plausibleRecord(rest, false)
}
