package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestDetectHeaderOnlyCapture: a capture with no classifiable frame
// flags 0% of its 0 messages, in the headline format scripts parse.
func TestDetectHeaderOnlyCapture(t *testing.T) {
	dir := t.TempDir()
	v := vehicle.NewVehicleB()
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
