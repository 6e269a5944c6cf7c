package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// Captures compress extremely well (idle samples and steady states
// dominate), so the tools support transparent gzip: tracegen -gzip
// writes ~10× smaller files and every reader auto-detects the format.

// NewCompressedWriter wraps the capture writer in gzip. The returned
// close function flushes the capture and terminates the gzip stream;
// call it exactly once after the last record.
func NewCompressedWriter(w io.Writer, h Header) (*Writer, func() error, error) {
	gz := gzip.NewWriter(w)
	tw, err := NewWriter(gz, h)
	if err != nil {
		_ = gz.Close()
		return nil, nil, err
	}
	closeFn := func() error {
		if err := tw.Flush(); err != nil {
			_ = gz.Close()
			return err
		}
		return gz.Close()
	}
	return tw, closeFn, nil
}

// OpenReader returns a capture reader for plain or gzip-compressed
// input, auto-detected from the stream's first bytes. The two bytes
// read to decide are put back in front of the stream rather than
// peeked through a buffer of their own, so the reader's pooled buffer
// is the only one between a plain stream and the parser.
func OpenReader(r io.Reader) (*Reader, error) {
	head := make([]byte, 2)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	r = io.MultiReader(bytes.NewReader(head), r)
	if head[0] == 0x1F && head[1] == 0x8B {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		return NewReader(gz)
	}
	return NewReader(r)
}

// OpenPath opens a capture file (plain or gzip, auto-detected) and
// returns the reader plus a closer for the underlying file, which also
// releases the reader's read buffer. On error the file is already
// closed.
func OpenPath(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := OpenReader(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, fileReader{r, f}, nil
}

// fileReader is OpenPath's closer: it releases the reader, then closes
// its file.
type fileReader struct {
	r *Reader
	f *os.File
}

func (c fileReader) Close() error {
	c.r.Release()
	return c.f.Close()
}
