package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vprofile/internal/canbus"
)

// encodeWire builds a model file byte-for-byte the way Save does, but
// from an arbitrary wire struct, so tests can craft payloads Save
// would never produce.
func encodeWire(t *testing.T, wire modelWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(modelMagic)
	buf.WriteByte(modelVersion)
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsOutOfRangeLUT(t *testing.T) {
	base := func() modelWire {
		return modelWire{
			Metric: Euclidean,
			Dim:    1,
			SALUT:  map[uint8]int{0x10: 0},
			Clusters: []clusterWire{
				{SAs: []uint8{0x10}, Mean: []float64{1.5}, MaxDist: 0.5, N: 8},
			},
		}
	}

	// Sanity: the well-formed payload loads and detects without issue.
	m, err := Load(bytes.NewReader(encodeWire(t, base())))
	if err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	}
	if d := m.Detect(0x10, []float64{1.5}); d.Anomaly {
		t.Fatalf("clean sample flagged: %+v", d)
	}

	cases := []struct {
		name string
		id   int
	}{
		// A negative cluster id used to pass the >= len check and
		// panic later inside Detect via m.Clusters[expID].
		{"negative", -1},
		{"very negative", -1 << 30},
		{"past end", 1},
		{"far past end", 1 << 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := base()
			wire.SALUT[0x10] = tc.id
			m, err := Load(bytes.NewReader(encodeWire(t, wire)))
			if err == nil {
				// Before the fix this is where the corrupt model would
				// escape validation; Detect then panicked.
				t.Fatalf("LUT cluster id %d accepted", tc.id)
			}
			if !strings.Contains(err.Error(), "cluster") {
				t.Fatalf("unhelpful error: %v", err)
			}
			if m != nil {
				t.Fatal("corrupt load returned a model")
			}
		})
	}
}

// TestLoadRejectsMalformedShapes feeds Load payloads whose dimension
// or cluster statistics disagree, or whose covariance will not factor.
// Each must fail with ErrModelFormat: a short covariance used to panic
// inside Load, the shape cases loaded cleanly and panicked at the first
// Detect, and the unfactorable ones scored through the file's inverse.
func TestLoadRejectsMalformedShapes(t *testing.T) {
	base := func() modelWire {
		return modelWire{
			Metric: Mahalanobis,
			Dim:    2,
			SALUT:  map[uint8]int{0x10: 0},
			Clusters: []clusterWire{{
				SAs: []uint8{0x10}, Mean: []float64{1, 2},
				Cov: []float64{1, 0, 0, 1}, InvCov: []float64{1, 0, 0, 1},
				MaxDist: 0.5, N: 8,
			}},
		}
	}
	if m, err := Load(bytes.NewReader(encodeWire(t, base()))); err != nil {
		t.Fatalf("well-formed payload rejected: %v", err)
	} else if d := m.Detect(0x10, []float64{1, 2}); d.Anomaly {
		t.Fatalf("clean sample flagged: %+v", d)
	}

	cases := []struct {
		name   string
		mangle func(*modelWire)
	}{
		{"short covariance", func(w *modelWire) { w.Clusters[0].Cov = []float64{1, 0, 0} }},
		{"short mean", func(w *modelWire) { w.Clusters[0].Mean = []float64{1} }},
		{"long mean", func(w *modelWire) { w.Clusters[0].Mean = []float64{1, 2, 3} }},
		{"short inverse covariance", func(w *modelWire) { w.Clusters[0].InvCov = []float64{1} }},
		{"zero dimension", func(w *modelWire) { w.Dim = 0 }},
		{"negative dimension", func(w *modelWire) { w.Dim = -2 }},
		{"mahalanobis without covariance", func(w *modelWire) { w.Clusters[0].Cov, w.Clusters[0].InvCov = nil, nil }},
		{"unknown metric", func(w *modelWire) { w.Metric = 7 }},
		{"negative count", func(w *modelWire) { w.Clusters[0].N = -3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := base()
			tc.mangle(&wire)
			m, err := Load(bytes.NewReader(encodeWire(t, wire)))
			if !errors.Is(err, ErrModelFormat) {
				t.Fatalf("Load err = %v, want ErrModelFormat", err)
			}
			if m != nil {
				t.Fatal("malformed load returned a model")
			}
		})
	}

	// A well-shaped covariance that will not factor. The file carries
	// a well-shaped inverse, which Load must not score through instead.
	for name, cov := range map[string][]float64{
		"zero covariance":       {0, 0, 0, 0},
		"indefinite covariance": {1, 2, 2, 1},
	} {
		t.Run(name, func(t *testing.T) {
			wire := base()
			wire.Clusters[0].Cov = cov
			m, err := Load(bytes.NewReader(encodeWire(t, wire)))
			if !errors.Is(err, ErrModelFormat) || !errors.Is(err, ErrSingularCov) {
				t.Fatalf("Load err = %v, want ErrModelFormat wrapping ErrSingularCov", err)
			}
			if m != nil {
				t.Fatal("unfactorable load returned a model")
			}
		})
	}
}

// TestLoadIgnoresStoredInverse loads a model file the way older builds
// wrote it, with every cluster's inverse covariance alongside its
// covariance. It must load, and score bit-identically to the same model
// saved by this build, which writes no inverse.
func TestLoadIgnoresStoredInverse(t *testing.T) {
	m, ecus, rng := trainTest(t, Mahalanobis, TrainConfig{TargetClusters: 4, Margin: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(saved[len(modelMagic)+1:])).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	for i := range wire.Clusters {
		if wire.Clusters[i].InvCov != nil {
			t.Fatalf("Save wrote cluster %d's inverse covariance", i)
		}
		inv, err := m.Clusters[i].Cov.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		wire.Clusters[i].InvCov = inv.Data
	}
	old, err := Load(bytes.NewReader(encodeWire(t, wire)))
	if err != nil {
		t.Fatalf("file with an inverse covariance rejected: %v", err)
	}
	cur, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		s := ecus[trial%len(ecus)].sample(rng)
		if got, want := old.Detect(s.SA, s.Set), cur.Detect(s.SA, s.Set); got != want {
			t.Fatalf("trial %d: file with inverse detects %+v, without %+v", trial, got, want)
		}
		for i, c := range cur.Clusters {
			if got, want := old.Distance(old.Clusters[i], s.Set), cur.Distance(c, s.Set); got != want {
				t.Fatalf("trial %d cluster %d: file with inverse scores %v, without %v", trial, i, got, want)
			}
		}
	}
}

// FuzzLoadModel throws arbitrary bytes at Load, which reads external
// input (policy files, model swaps, -model). It must never panic, and
// a model it accepts must save, load again and score a Dim-length edge
// set identically before and after the round trip.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		set := make([]float64, m.Dim)
		for i := range set {
			set[i] = float64(i)
		}
		sas := []canbus.SourceAddress{0xFE}
		for sa := range m.SALUT {
			sas = append(sas, sa)
		}
		for _, sa := range sas {
			want := fmt.Sprintf("%+v", m.Detect(sa, set))
			if got := fmt.Sprintf("%+v", again.Detect(sa, set)); got != want {
				t.Fatalf("SA %#02x scores %s after the round trip, %s before", uint8(sa), got, want)
			}
		}
	})
}
