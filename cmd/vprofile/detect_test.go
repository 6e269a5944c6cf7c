package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprofile/internal/attack"
	"vprofile/internal/engine"
	"vprofile/internal/obs"
	"vprofile/internal/vehicle"
)

func TestTimelineLineFormats(t *testing.T) {
	e := obs.Event{TimeSec: 2.5, Kind: obs.EventVoltage, SA: obs.U8(0x31),
		FrameID: obs.U32(0x18FEF131), Reason: "cluster-mismatch", Dist: 12.3, Predict: 4}
	line := timelineLine(e)
	for _, want := range []string{"VOLTAGE", "SA 0x31", "cluster-mismatch", "dist 12.30", "cluster 4"} {
		if !strings.Contains(line, want) {
			t.Fatalf("timeline line %q missing %q", line, want)
		}
	}
	if got := timelineLine(obs.Event{TimeSec: 1, Kind: obs.EventTiming, FrameID: obs.U32(0xCF00400)}); !strings.Contains(got, "arrived early") {
		t.Fatalf("timing line = %q", got)
	}
	for _, e := range []obs.Event{
		{TimeSec: 1, Kind: obs.EventPreprocess, SA: obs.U8(1), Detail: "garbled"},
		{TimeSec: 1, Kind: obs.EventTransport, SA: obs.U8(2), Detail: "bad DT"},
		{TimeSec: 1, Kind: obs.EventDM1, SA: obs.U8(3), Detail: "lamps", DTCs: 2},
		{TimeSec: 1, Kind: obs.EventQuarantine, SA: obs.U8(4), Detail: "healthy->degraded"},
	} {
		if line := timelineLine(e); !strings.Contains(line, "s  ") {
			t.Fatalf("unrenderable timeline line %q", line)
		}
	}
}

// TestDetectTwoCaptures: a comma-separated -capture replays both
// buses as one fleet and prints a block for each. A bus truncated
// mid-record aborts (exit 3) while the healthy bus is still
// summarised in full.
func TestDetectTwoCaptures(t *testing.T) {
	dir := t.TempDir()
	v := vehicle.NewVehicleB()
	modelPath := writeModel(t, v, dir)
	corpus := func(name string) []byte {
		spec, err := attack.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := attack.WriteCorpus(&b, v, spec, 300, 5); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	front := write("front.vptr", corpus("clean"))
	hijack := corpus("hijack")
	rear := write("rear.vptr", hijack)
	// Cutting the last record short leaves a record the reader cannot
	// finish: trace.ErrCorrupt, not a clean end of stream.
	broken := write("broken.vptr", hijack[:len(hijack)-7])

	detect := func(captures ...string) (string, error) {
		var err error
		out := captureStdout(t, func() error {
			err = cmdDetect([]string{"-capture", strings.Join(captures, ","), "-model", modelPath, "-workers", "2", "-timeline"})
			return nil
		})
		return out, err
	}

	out, err := detect(front, rear)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "[rear] ") && !strings.Contains(out, "\n[rear] ") {
		t.Fatalf("no timeline line tagged with the attacked bus:\n%s", out)
	}
	for _, want := range []string{"classified ", "== bus front ==", "== bus rear =="} {
		if !strings.Contains(out, want) {
			t.Fatalf("two-capture detect output lacks %q:\n%s", want, out)
		}
	}

	out, err = detect(front, broken)
	var abort *engine.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("truncated bus: err = %v, want an *engine.AbortError", err)
	}
	// Buses are summarised in capture order.
	i, j := strings.Index(out, "== bus front =="), strings.Index(out, "== bus broken ==")
	if i < 0 || j < i {
		t.Fatalf("both buses must be summarised, in capture order:\n%s", out)
	}
	healthy, failed := out[i:j], out[j:]
	if strings.Contains(healthy, "replay failed") || !strings.Contains(healthy, "voltage alarms:") {
		t.Fatalf("healthy bus not summarised in full:\n%s", healthy)
	}
	if !strings.Contains(failed, "replay failed:") {
		t.Fatalf("truncated bus does not report its failure:\n%s", failed)
	}

	// A lone truncated capture is reported the same way: the error,
	// then the summary of every frame delivered before the abort.
	out, err = detect(broken)
	if !errors.As(err, &abort) {
		t.Fatalf("lone truncated capture: err = %v, want an *engine.AbortError", err)
	}
	if i := strings.Index(out, "replay failed:"); i < 0 || !strings.Contains(out[i:], "voltage alarms:") {
		t.Fatalf("lone truncated capture not summarised after its failure:\n%s", out)
	}

	// A bus whose capture never opened reports its error and no
	// summary; the other bus is summarised in full.
	missing := filepath.Join(dir, "missing.vptr")
	out, err = detect(front, missing)
	if err == nil || errors.As(err, &abort) {
		t.Fatalf("missing capture: err = %v, want a plain open error", err)
	}
	j = strings.Index(out, "== bus missing ==")
	if j < 0 || !strings.Contains(out[j:], "replay failed:") || strings.Contains(out[j:], "capture:") {
		t.Fatalf("missing capture must report its error and no summary:\n%s", out)
	}
	if !strings.Contains(out[:j], "voltage alarms:") {
		t.Fatalf("healthy bus not summarised beside a missing one:\n%s", out)
	}
}

// TestDetectLabelsNeedOneCapture: a labels sidecar describes one
// capture, so -labels with two is a usage error (exit 2).
func TestDetectLabelsNeedOneCapture(t *testing.T) {
	err := cmdDetect([]string{"-capture", "a.vptr,b.vptr", "-labels", "a.labels.json"})
	var usage usageError
	if !errors.As(err, &usage) {
		t.Fatalf("err = %v, want a usage error", err)
	}
}
