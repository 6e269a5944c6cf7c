// Package trace implements the capture file format vProfile uses for
// test repeatability: the paper records each vehicle's bus traffic
// once and replays it into the detector. A capture file carries the
// digitizer configuration followed by a stream of per-message records
// (ground-truth sender, timestamp, frame, and the raw ADC code trace).
//
// The format is a compact little-endian binary stream: codes are
// stored as uint16 (they are integral ADC codes of at most 16 bits),
// so a 5,000-sample message costs ~10 KB on disk.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/vehicle"
)

// Errors reported by the package.
var (
	ErrBadMagic   = errors.New("trace: not a vProfile capture file")
	ErrBadVersion = errors.New("trace: unsupported capture version")
	ErrCorrupt    = errors.New("trace: corrupt record")
	// ErrTraceLength reports a record whose trace exceeds the bound
	// the reader enforces; writing it would produce a file no reader
	// accepts.
	ErrTraceLength = errors.New("trace: trace exceeds maximum sample count")
	// ErrCodeRange reports an ADC code that does not fit the on-disk
	// uint16 representation (negative, above 65535, or NaN).
	ErrCodeRange = errors.New("trace: ADC code outside uint16 range")
)

const (
	magic   = "VPTR"
	version = 1
	// maxSaneSamples bounds a single record so corrupt length fields
	// fail fast instead of attempting enormous allocations.
	maxSaneSamples = 1 << 24
)

// Header describes the capture: which vehicle, bus rate and digitizer.
type Header struct {
	Vehicle string
	BitRate float64
	ADC     analog.ADC
}

// Record is one captured message.
type Record struct {
	ECUIndex int32 // ground-truth sender; −1 for a foreign device
	TimeSec  float64
	FrameID  uint32
	Data     []byte
	Trace    analog.Trace
}

// Writer streams records to a capture file.
type Writer struct {
	w   *bufio.Writer
	err error
	// codes is the buffer Write packs a trace into.
	codes []byte
}

// NewWriter writes the header and returns a record writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	out := &Writer{w: bw}
	out.u16(version)
	out.str(h.Vehicle)
	out.f64(h.BitRate)
	out.f64(h.ADC.SampleRate)
	out.u16(uint16(h.ADC.Bits))
	out.f64(h.ADC.MinVolts)
	out.f64(h.ADC.MaxVolts)
	if out.err != nil {
		return nil, out.err
	}
	return out, nil
}

// Write appends one record. Records that cannot round-trip — data
// longer than a CAN frame, traces beyond the reader's sanity bound,
// or ADC codes outside the on-disk uint16 representation — are
// rejected before any bytes are emitted, leaving the writer usable.
// It packs the trace and writes it through writeRaw.
func (w *Writer) Write(r *Record) error {
	if len(r.Trace) > maxSaneSamples {
		return fmt.Errorf("%w: %d samples (max %d)", ErrTraceLength, len(r.Trace), maxSaneSamples)
	}
	w.codes = slices.Grow(w.codes[:0], 2*len(r.Trace))
	for i, c := range r.Trace {
		// uint16(c) would silently wrap negative or oversized codes
		// (and NaN, which fails every comparison, converts to an
		// unspecified value); reject instead of corrupting the file.
		if !(c >= 0 && c <= math.MaxUint16) {
			return fmt.Errorf("%w: sample %d = %g", ErrCodeRange, i, c)
		}
		w.codes = binary.LittleEndian.AppendUint16(w.codes, uint16(c))
	}
	return w.writeRaw(&RawRecord{
		ECUIndex: r.ECUIndex, TimeSec: r.TimeSec, FrameID: r.FrameID, Data: r.Data, Codes: w.codes,
	})
}

// writeRaw appends one record whose sample codes are already packed,
// the form NextRawInto reads. Data longer than a CAN frame, an odd
// code byte count or more samples than the reader's sanity bound are
// rejected before any bytes are emitted.
func (w *Writer) writeRaw(r *RawRecord) error {
	if w.err != nil {
		return w.err
	}
	if len(r.Data) > 8 {
		return canbus.ErrDataLength
	}
	if len(r.Codes)%2 != 0 {
		return fmt.Errorf("trace: %d code bytes is not a whole number of samples", len(r.Codes))
	}
	if n := len(r.Codes) / 2; n > maxSaneSamples {
		return fmt.Errorf("%w: %d samples (max %d)", ErrTraceLength, n, maxSaneSamples)
	}
	w.u32(uint32(r.ECUIndex))
	w.f64(r.TimeSec)
	w.u32(r.FrameID)
	w.u16(uint16(len(r.Data)))
	w.bytes(r.Data)
	w.u32(uint32(len(r.Codes) / 2))
	w.bytes(r.Codes)
	return w.err
}

// Flush commits buffered data. Call once after the last record.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func (w *Writer) u16(v uint16) {
	if w.err == nil {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], v)
		_, w.err = w.w.Write(b[:])
	}
}

func (w *Writer) u32(v uint32) {
	if w.err == nil {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, w.err = w.w.Write(b[:])
	}
}

func (w *Writer) f64(v float64) {
	if w.err == nil {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, w.err = w.w.Write(b[:])
	}
}

func (w *Writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *Writer) str(s string) {
	w.u16(uint16(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// readBufs recycles readers' read buffers. Each is resyncWindow bytes,
// so the recovering reader peeks a whole window through the one buffer
// a reader has, and a saturated stream fills it with many records per
// read. A reader takes one in NewReader and gives it back in Release.
var readBufs = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, resyncWindow) }}

// Reader streams records from a capture file.
type Reader struct {
	// r is the reader's pooled read buffer; nil once released.
	r       *bufio.Reader
	header  Header
	metrics *Metrics

	// off is the byte offset into the (uncompressed) stream, used to
	// locate corruption reports.
	off int64
	// recovery state; see EnableRecovery in resync.go. reports is the
	// one piece of reader state read from other goroutines (mid-stream
	// status snapshots), so it gets its own mutex; everything else is
	// owned by the reading goroutine.
	recover bool
	repMu   sync.Mutex
	reports []RecoveredCorruption
	scratch []byte
	// field is the fixed-width field buffer u16/u32/f64 read through.
	// A stack array handed to io.ReadFull escapes to the heap, which
	// cost five allocations per record; owning the buffer keeps the
	// strict parse allocation-free.
	field [8]byte
}

// NewReader validates the header and returns a record reader. The
// reader reads through a buffer taken from a pool every Reader shares;
// Release gives it back.
func NewReader(r io.Reader) (_ *Reader, err error) {
	br := readBufs.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		if err != nil {
			br.Reset(nil)
			readBufs.Put(br)
		}
	}()
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(got) != magic {
		return nil, ErrBadMagic
	}
	rd := &Reader{r: br}
	v, err := rd.u16()
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if rd.header.Vehicle, err = rd.str(); err != nil {
		return nil, err
	}
	if rd.header.BitRate, err = rd.f64(); err != nil {
		return nil, err
	}
	if rd.header.ADC.SampleRate, err = rd.f64(); err != nil {
		return nil, err
	}
	bits, err := rd.u16()
	if err != nil {
		return nil, err
	}
	rd.header.ADC.Bits = int(bits)
	if rd.header.ADC.MinVolts, err = rd.f64(); err != nil {
		return nil, err
	}
	if rd.header.ADC.MaxVolts, err = rd.f64(); err != nil {
		return nil, err
	}
	if err := rd.header.ADC.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rd, nil
}

// Header returns the capture metadata.
func (r *Reader) Header() Header { return r.header }

// Buffered reports how many bytes of the stream the reader holds
// already read but not yet parsed. Zero at a record boundary means the
// next NextRawInto reads the underlying stream, which on a live feed
// may block.
func (r *Reader) Buffered() int { return r.r.Buffered() }

// Release returns the reader's read buffer to the pool every Reader
// shares. The reader must not be read after it; Header and Corruptions
// stay valid, and a second Release is a no-op. A reader never released
// just leaves its buffer to the garbage collector.
func (r *Reader) Release() {
	if r.r == nil {
		return
	}
	r.r.Reset(nil)
	readBufs.Put(r.r)
	r.r = nil
}

// RawRecord is a record whose sample codes are still in their packed
// on-disk form: two little-endian bytes per sample. Reading raw
// records keeps the (inherently serial) stream-decoding stage of a
// concurrent replay cheap, and the verdict path never expands them:
// workers extract and score straight from the Samples view. Decode,
// the float64 expansion, is for callers that keep or synthesize whole
// traces (training, experiments, ReadAll).
type RawRecord struct {
	ECUIndex int32
	TimeSec  float64
	FrameID  uint32
	Data     []byte
	Codes    []byte // 2 bytes per sample, little-endian uint16

	// samples is the view Samples decodes into where it cannot alias
	// Codes. It never holds more than len(Codes)/2 codes, so a bound
	// on cap(Codes) bounds it too.
	samples []uint16
}

// hostLittleEndian reports whether the host stores a uint16 the way
// the capture format packs it, so Samples can alias Codes.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Samples returns the record's sample codes as uint16s, the element
// type edgeset.ExtractInto reads directly; an odd trailing byte is
// ignored, as in DecodeInto. On a little-endian host it reinterprets
// Codes in place and copies nothing. On a big-endian host, or when
// Codes starts at an odd address, it decodes into a buffer the record
// owns. Either way the view is valid until the record is next
// refilled, and must not be written through.
func (rr *RawRecord) Samples() []uint16 {
	n := len(rr.Codes) / 2
	if n == 0 {
		return nil
	}
	p := unsafe.SliceData(rr.Codes)
	if hostLittleEndian && uintptr(unsafe.Pointer(p))%unsafe.Alignof(uint16(0)) == 0 {
		return unsafe.Slice((*uint16)(unsafe.Pointer(p)), n)
	}
	rr.samples = slices.Grow(rr.samples[:0], n)[:n]
	for i := range rr.samples {
		rr.samples[i] = binary.LittleEndian.Uint16(rr.Codes[2*i:])
	}
	return rr.samples
}

// Decode expands the packed sample codes into a full Record.
func (rr *RawRecord) Decode() *Record {
	rec := new(Record)
	rr.DecodeInto(rec)
	return rec
}

// DecodeInto is Decode over a caller-owned Record, reusing its Data
// and Trace capacity. Every field of rec is overwritten; the Data
// bytes are copied (not aliased) so the RawRecord's buffers can be
// recycled the moment this returns.
func (rr *RawRecord) DecodeInto(rec *Record) {
	rec.ECUIndex = rr.ECUIndex
	rec.TimeSec = rr.TimeSec
	rec.FrameID = rr.FrameID
	rec.Data = append(rec.Data[:0], rr.Data...)
	n := len(rr.Codes) / 2
	if cap(rec.Trace) < n {
		rec.Trace = make(analog.Trace, n)
	}
	rec.Trace = rec.Trace[:n]
	for i := range rec.Trace {
		rec.Trace[i] = float64(binary.LittleEndian.Uint16(rr.Codes[2*i:]))
	}
}

// NextRawInto reads the next record into a caller-owned RawRecord
// without decoding its samples, or returns io.EOF at the end of the
// capture. It reuses rec's Data and Codes capacity, so a steady-state
// replay loop stops allocating per record; every field of rec is
// overwritten on success. With EnableRecovery, corrupt stretches are
// skipped (and reported through Corruptions) instead of ending the
// read.
func (r *Reader) NextRawInto(rec *RawRecord) error {
	if !r.recover {
		return r.nextRawOnceInto(rec)
	}
	return r.nextRawRecovering(rec)
}

// codesChunk bounds a single sample-payload allocation: payload
// buffers grow as bytes actually arrive, so a corrupt length field
// costs at most one chunk of memory before the stream runs dry — not
// the 32 MiB a hostile 24-bit count would otherwise reserve upfront.
const codesChunk = 64 << 10

// nextRawOnceInto is the strict single-record parse, overwriting every
// field of rec and reusing its buffer capacity.
func (r *Reader) nextRawOnceInto(rec *RawRecord) error {
	ecuRaw, err := r.u32()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rec.ECUIndex = int32(ecuRaw)
	if rec.TimeSec, err = r.f64(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.FrameID, err = r.u32(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	dataLen, err := r.u16()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if dataLen > 8 {
		return fmt.Errorf("%w: data length %d", ErrCorrupt, dataLen)
	}
	if cap(rec.Data) < int(dataLen) {
		rec.Data = make([]byte, dataLen)
	}
	rec.Data = rec.Data[:dataLen]
	if err := r.read(rec.Data); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n, err := r.u32()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if n > maxSaneSamples {
		return fmt.Errorf("%w: %d samples", ErrCorrupt, n)
	}
	total := 2 * int(n)
	if total <= codesChunk {
		if cap(rec.Codes) < total {
			rec.Codes = make([]byte, total)
		}
		rec.Codes = rec.Codes[:total]
		if err := r.read(rec.Codes); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	} else {
		// Chunked path for large counts: a length field is untrusted
		// input, so memory grows only as payload bytes actually
		// arrive instead of reserving the full claimed size upfront.
		if r.scratch == nil {
			r.scratch = make([]byte, codesChunk)
		}
		rec.Codes = rec.Codes[:0]
		for read := 0; read < total; {
			chunk := total - read
			if chunk > codesChunk {
				chunk = codesChunk
			}
			if err := r.read(r.scratch[:chunk]); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			rec.Codes = append(rec.Codes, r.scratch[:chunk]...)
			read += chunk
		}
	}
	if m := r.metrics; m != nil {
		m.Records.Inc()
		// Fixed fields (ECU 4 + time 8 + id 4 + data len 2 + sample
		// count 4) plus the variable payloads.
		m.Bytes.Add(int64(22 + len(rec.Data) + len(rec.Codes)))
	}
	return nil
}

// Next reads the next record, or io.EOF at the end of the capture.
func (r *Reader) Next() (*Record, error) {
	var raw RawRecord
	if err := r.NextRawInto(&raw); err != nil {
		return nil, err
	}
	return raw.Decode(), nil
}

// read fills b from the stream and advances the corruption-report
// offset by the bytes actually consumed.
func (r *Reader) read(b []byte) error {
	n, err := io.ReadFull(r.r, b)
	r.off += int64(n)
	return err
}

func (r *Reader) u16() (uint16, error) {
	b := r.field[:2]
	if err := r.read(b); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *Reader) u32() (uint32, error) {
	b := r.field[:4]
	if err := r.read(b); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *Reader) f64() (float64, error) {
	b := r.field[:8]
	if err := r.read(b); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *Reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if err := r.read(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// WriteCapture streams a vehicle's generated traffic straight to a
// capture file without holding it in memory.
func WriteCapture(w io.Writer, v *vehicle.Vehicle, cfg vehicle.GenConfig) error {
	tw, err := NewWriter(w, Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return err
	}
	err = v.Stream(cfg, func(m vehicle.Message) error {
		return tw.Write(&Record{
			ECUIndex: int32(m.ECUIndex),
			TimeSec:  m.TimeSec,
			FrameID:  m.Frame.ID,
			Data:     m.Frame.Data,
			Trace:    m.Trace,
		})
	})
	if err != nil {
		return err
	}
	return tw.Flush()
}

// ReadAll loads an entire capture into memory (small captures only).
func ReadAll(r io.Reader) (Header, []*Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return Header{}, nil, err
	}
	defer rd.Release()
	var recs []*Record
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return rd.Header(), recs, nil
		}
		if err != nil {
			return rd.Header(), recs, err
		}
		recs = append(recs, rec)
	}
}
