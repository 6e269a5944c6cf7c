package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vprofile/internal/attack"
	"vprofile/internal/core"
	"vprofile/internal/experiments"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		var b bytes.Buffer
		_, _ = io.Copy(&b, r)
		out <- b.String()
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatal(err)
	}
	return printed
}

// writeModel trains a Euclidean model on v's clean traffic and saves
// it under dir, returning its path.
func writeModel(t *testing.T, v *vehicle.Vehicle, dir string) string {
	t.Helper()
	train, err := experiments.CollectSamples(v, 300, 7, nil, v.ExtractionConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{Metric: core.Euclidean, SAMap: v.SAMap()})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.vpm")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return modelPath
}

// TestDetectHeaderOnlyCapture: a capture with no classifiable frame
// flags 0% of its 0 messages, in the headline format scripts parse.
func TestDetectHeaderOnlyCapture(t *testing.T) {
	dir := t.TempDir()
	v := vehicle.NewVehicleB()
	modelPath := writeModel(t, v, dir)
	var capture bytes.Buffer
	w, err := trace.NewWriter(&capture, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	capturePath := filepath.Join(dir, "empty.vptr")
	if err := os.WriteFile(capturePath, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return cmdDetect([]string{"-capture", capturePath, "-model", modelPath, "-workers", "1"})
	})
	if want := "classified 0 messages: 0 flagged (0.0000%) in "; !strings.HasPrefix(out, want) {
		t.Fatalf("detect printed %q, want a line starting %q", out, want)
	}
}

// TestDetectReasonsInOrder: detect breaks its voltage alarms down by
// reason in core.Reason order, so two runs over one capture print the
// same report (the wall-clock figure aside).
func TestDetectReasonsInOrder(t *testing.T) {
	dir := t.TempDir()
	v := vehicle.NewVehicleB()
	modelPath := writeModel(t, v, dir)
	spec, err := attack.ScenarioByName("hijack")
	if err != nil {
		t.Fatal(err)
	}
	var capture bytes.Buffer
	if _, err := attack.WriteCorpus(&capture, v, spec, 800, 3); err != nil {
		t.Fatal(err)
	}
	capturePath := filepath.Join(dir, "hijack.vptr")
	if err := os.WriteFile(capturePath, capture.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	wallTime := regexp.MustCompile(` in [0-9.]+s `)
	detect := func() string {
		out := captureStdout(t, func() error {
			return cmdDetect([]string{"-capture", capturePath, "-model", modelPath, "-workers", "4"})
		})
		return wallTime.ReplaceAllString(out, " ")
	}
	first, second := detect(), detect()
	if first != second {
		t.Fatalf("two detect runs differ:\n%s\nvs\n%s", first, second)
	}
	var printed []core.Reason
	for r := core.ReasonNone; r <= core.ReasonOverThreshold; r++ {
		if i := strings.Index(first, "  "+r.String()+":"); i >= 0 {
			printed = append(printed, r)
			if len(printed) > 1 && i < strings.Index(first, "  "+printed[len(printed)-2].String()+":") {
				t.Fatalf("reason %s printed before %s:\n%s", r, printed[len(printed)-2], first)
			}
		}
	}
	if len(printed) < 2 {
		t.Fatalf("test is vacuous: %d reasons printed:\n%s", len(printed), first)
	}
}
