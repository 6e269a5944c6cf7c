package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestLoadScoresIdentically round-trips a model through Save/Load and
// requires bit-identical distances: the covariances serialise exactly
// and Load's factorisation is deterministic, so a deserialised model
// must score exactly like the one that was saved.
func TestLoadScoresIdentically(t *testing.T) {
	m, ecus, _ := trainTest(t, Mahalanobis, TrainConfig{Ridge: 1e-6})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range loaded.Clusters {
		if c.chol == nil {
			t.Fatalf("Load did not factor cluster %d", c.ID)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		s := ecus[trial%len(ecus)].sample(rng)
		c1, err := m.ClusterForSA(s.SA)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := loaded.ClusterForSA(s.SA)
		if err != nil {
			t.Fatal(err)
		}
		if d1, d2 := m.Distance(c1, s.Set), loaded.Distance(c2, s.Set); d1 != d2 {
			t.Fatalf("trial %d: loaded model scores %v, original %v", trial, d2, d1)
		}
	}
}
