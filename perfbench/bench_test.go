package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestMain(m *testing.M) {
	// The load sender re-executes this binary.
	if os.Getenv(senderEnv) == "1" {
		os.Exit(senderMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads
// and metrics the program reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestWorkloadsShort runs every workload once, untraced and traced, on
// tiny inputs: every declared metric must be reported with its unit,
// nothing may fail or leak, and the daemon's alarm rates must equal
// the reference replay's.
func TestWorkloadsShort(t *testing.T) {
	work := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 3, seconds: 1, trace: traced, work: work, short: true}
			res, _, notes, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct %v, %d of %d failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not reported", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: unit %q, declared %q", d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s on %s: end-to-end value %g is not positive", d.name, w.name, m.Value)
				}
			}
			if !traced {
				continue
			}
			for _, name := range []string{"runtime.goroutines_leaked", "control.alarms_dropped", "pipeline.records_lost"} {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s: %s = %g", w.name, name, v)
				}
			}
			records, _ := cfg.sizes(w)
			in, err := loadInputs(filepath.Join(work, "inputs"), cfg.seed, w.scenario, records)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.truncate(records); err != nil {
				t.Fatal(err)
			}
			ref, err := replayReference(in)
			if err != nil {
				t.Fatal(err)
			}
			tpr, fpr := in.rates(ref.alarms)
			if w.rate > 0 && (res.Metrics["ids.tpr"].Value != tpr || res.Metrics["ids.fpr"].Value != fpr) {
				t.Errorf("%s: daemon tpr/fpr %g/%g, reference %g/%g", w.name,
					res.Metrics["ids.tpr"].Value, res.Metrics["ids.fpr"].Value, tpr, fpr)
			}
		}
	}
}
