package tracing

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vprofile/internal/analog"
	"vprofile/internal/trace"
)

// Bundle is one frozen alarm: the alarm frame's decision record plus
// up to Window frames of context on each side. On disk a bundle is a
// directory of three files:
//
//	bundle.json      this struct, without the decisions
//	decisions.jsonl  one Decision per line, in record order
//	waveform.vptr    the frames' raw voltage traces as a standard
//	                 capture file — openable by trace.OpenReader,
//	                 plottable by vplot -bundle, even replayable
//	                 straight back through vprofile detect
type Bundle struct {
	Seq        int     `json:"seq"`
	Trace      TraceID `json:"trace"`
	AlarmIndex int     `json:"alarm_index"`
	TimeSec    float64 `json:"t"`
	SA         uint8   `json:"sa"`
	FrameID    uint32  `json:"frame_id"`
	// Alarms and Severity mirror the alarm decision's tags.
	Alarms   []string `json:"alarms"`
	Severity string   `json:"severity"`
	// Window is the configured context size; Truncated marks a bundle
	// whose post-alarm context was cut short by the end of the run.
	Window    int  `json:"window"`
	Truncated bool `json:"truncated,omitempty"`
	// Incident is the id of the incident that was open for this
	// bundle's (bus, SA) when the bundle finished ("" when no incident
	// layer is running or no incident covered the alarm) — the join key
	// between a forensic bundle and the fleet incident stream.
	Incident string `json:"incident,omitempty"`
	// Path is the on-disk directory ("" for an in-memory bundle).
	Path string `json:"path,omitempty"`

	Decisions []*Decision `json:"decisions,omitempty"`
}

// DirName is the bundle's on-disk directory name (the base name of
// Path when written) — the stable reference incident evidence and
// event logs carry.
func (b *Bundle) DirName() string {
	return fmt.Sprintf("bundle-%04d-%s", b.Seq, b.Trace)
}

// Alarm returns the bundle's alarm decision (nil if the bundle is
// somehow empty).
func (b *Bundle) Alarm() *Decision {
	for _, d := range b.Decisions {
		if d.Index == b.AlarmIndex {
			return d
		}
	}
	return nil
}

const (
	bundleMetaFile      = "bundle.json"
	bundleDecisionsFile = "decisions.jsonl"
	bundleWaveformFile  = "waveform.vptr"
)

// writeBundle persists a bundle under dir and returns the bundle's
// own directory path.
func writeBundle(dir string, b *Bundle, h trace.Header) (string, error) {
	path := filepath.Join(dir, b.DirName())
	if err := os.MkdirAll(path, 0o755); err != nil {
		return "", err
	}
	meta := *b
	meta.Decisions = nil
	meta.Path = path
	if err := writeJSONFile(filepath.Join(path, bundleMetaFile), &meta); err != nil {
		return "", err
	}
	if err := writeDecisions(filepath.Join(path, bundleDecisionsFile), b.Decisions); err != nil {
		return "", err
	}
	if err := writeWaveforms(filepath.Join(path, bundleWaveformFile), h, b.Decisions); err != nil {
		return "", err
	}
	return path, nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func writeDecisions(path string, ds []*Decision) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeWaveforms emits the frames' raw traces as a capture file, one
// record per decision in bundle order, carrying the original
// ground-truth sender, timestamp, frame id and payload.
func writeWaveforms(path string, h trace.Header, ds []*Decision) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, h)
	if err != nil {
		_ = f.Close()
		return err
	}
	for _, d := range ds {
		rec := &trace.Record{
			ECUIndex: d.ECUIndex,
			TimeSec:  d.TimeSec,
			FrameID:  d.FrameID,
			Data:     d.Data,
			Trace:    analog.Trace(d.Samples),
		}
		if err := w.Write(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadBundle loads a bundle directory written by the recorder: the
// metadata, every decision record, and — when the waveform sidecar is
// present — each decision's raw samples reattached in record order.
func ReadBundle(dir string) (*Bundle, error) {
	mf, err := os.Open(filepath.Join(dir, bundleMetaFile))
	if err != nil {
		return nil, err
	}
	var b Bundle
	err = json.NewDecoder(mf).Decode(&b)
	_ = mf.Close()
	if err != nil {
		return nil, fmt.Errorf("tracing: %s: %w", bundleMetaFile, err)
	}

	df, err := os.Open(filepath.Join(dir, bundleDecisionsFile))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bufio.NewReader(df))
	for {
		var d Decision
		if err := dec.Decode(&d); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			_ = df.Close()
			return nil, fmt.Errorf("tracing: %s: %w", bundleDecisionsFile, err)
		}
		b.Decisions = append(b.Decisions, &d)
	}
	_ = df.Close()

	wf, err := os.Open(filepath.Join(dir, bundleWaveformFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &b, nil
		}
		return nil, err
	}
	defer wf.Close()
	rd, err := trace.OpenReader(wf)
	if err != nil {
		return nil, fmt.Errorf("tracing: %s: %w", bundleWaveformFile, err)
	}
	defer rd.Release()
	for i := 0; ; i++ {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tracing: %s: %w", bundleWaveformFile, err)
		}
		if i < len(b.Decisions) {
			b.Decisions[i].Samples = rec.Trace
		}
	}
	return &b, nil
}
