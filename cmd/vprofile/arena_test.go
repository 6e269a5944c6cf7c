package main

import (
	"bytes"
	"testing"

	"vprofile/internal/attack"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/stats"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// TestArenaCompositeMatchesSequential: the arena's composite row,
// scored by an engine session and a Scoreboard, equals a reference
// replay of the same corpus bytes through pipeline.Sequential scored
// against the labels mask.
func TestArenaCompositeMatchesSequential(t *testing.T) {
	v := vehicle.NewVehicleA()
	cfg := v.ExtractionConfig()
	var samples []core.Sample
	err := v.Stream(vehicle.GenConfig{NumMessages: 800, Seed: 1}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(samples, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap()})
	if err != nil {
		t.Fatal(err)
	}

	const n, seed = 200, 1
	for _, name := range []string{"hijack", "mimic-mid", "clean"} {
		t.Run(name, func(t *testing.T) {
			spec, err := attack.ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			msgs, err := attack.GenerateScenario(v, spec, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			row, err := arenaComposite(v, model, spec, seed, msgs, 4)
			if err != nil {
				t.Fatal(err)
			}

			var corpus bytes.Buffer
			labels, err := attack.WriteCorpus(&corpus, v, spec, n, seed)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := trace.NewReader(&corpus)
			if err != nil {
				t.Fatal(err)
			}
			mon, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: cfg})
			if err != nil {
				t.Fatal(err)
			}
			mask := labels.InjectedMask()
			var cm stats.ConfusionMatrix
			fails := 0
			_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
				if r.Verdict.ExtractErr != nil {
					fails++
				}
				cm.Add(mask[r.Index], r.Verdict.Alarm())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if cm.Total() != len(msgs) {
				t.Fatalf("reference scored %d of %d records", cm.Total(), len(msgs))
			}
			got := [5]int{row.TP, row.FP, row.FN, row.TN, row.ExtractFails}
			want := [5]int{cm.TP, cm.FP, cm.FN, cm.TN, fails}
			if got != want {
				t.Fatalf("arena row tp/fp/fn/tn/extract = %v, sequential reference %v", got, want)
			}
			if name == "hijack" && cm.TP == 0 {
				t.Fatal("hijack caught nothing; the comparison proves little")
			}
		})
	}
}
