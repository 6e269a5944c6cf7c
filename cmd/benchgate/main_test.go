package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseReport = `{"records": 100, "runs": [
  {"name": "sequential", "frames_per_sec": 1000},
  {"name": "parallel4",  "frames_per_sec": 2000},
  {"name": "parallel8",  "frames_per_sec": 2500}
]}`

func TestGatePassesWithinLimit(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// 5% down across the board: inside the 10% budget.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 950},
	  {"name": "parallel4",  "frames_per_sec": 1900},
	  {"name": "parallel8",  "frames_per_sec": 2375}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err != nil {
		t.Fatalf("gate tripped on a 5%% drop: %v", err)
	}
}

func TestGateFailsOnSystemicDrop(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 800},
	  {"name": "parallel4",  "frames_per_sec": 1600},
	  {"name": "parallel8",  "frames_per_sec": 2000}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err == nil {
		t.Fatal("gate accepted a 20% systemic drop")
	}
}

func TestGateToleratesOneOutlier(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// One config craters (noisy CI neighbour) but the median holds.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 500},
	  {"name": "parallel4",  "frames_per_sec": 1980},
	  {"name": "parallel8",  "frames_per_sec": 2450}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err != nil {
		t.Fatalf("gate tripped on a single outlier: %v", err)
	}
}

func TestGateFasterCandidatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1200},
	  {"name": "parallel4",  "frames_per_sec": 2400},
	  {"name": "parallel8",  "frames_per_sec": 3000}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err != nil {
		t.Fatalf("gate tripped on an improvement: %v", err)
	}
}

func TestGateRejectsDisjointReports(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "renamed", "frames_per_sec": 1000}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err == nil {
		t.Fatal("gate accepted reports with no shared configuration")
	}
}

// gateLayers runs the gate on a candidate whose replaybench table
// reported layers (a JSON object body, or "" for no layers map) under
// the given -max-overhead budgets.
func gateLayers(t *testing.T, layers string, b budgets) error {
	t.Helper()
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	body := baseReport
	if layers != "" {
		body = `{"records": 100, "layers": ` + layers + `, "runs": [
  {"name": "sequential", "frames_per_sec": 1000},
  {"name": "parallel4",  "frames_per_sec": 2000},
  {"name": "parallel8",  "frames_per_sec": 2500}
]}`
	}
	cand := writeReport(t, dir, "cand.json", body)
	return gate(base, cand, limits{maxDrop: 10, maxOverhead: b, maxAllocs: -1})
}

// Every -max-overhead layer=pct budget is one check against the
// candidate's layers map. The three cases below run for each gated
// layer.

func testLayerWithinBudget(t *testing.T, layer string) {
	if err := gateLayers(t, `{"`+layer+`": 3.2}`, budgets{layer: 5}); err != nil {
		t.Fatalf("gate tripped on 3.2%% %s overhead under a 5%% budget: %v", layer, err)
	}
}

func testLayerOverBudget(t *testing.T, layer string) {
	layers := `{"` + layer + `": 9.7}`
	if err := gateLayers(t, layers, budgets{layer: 5}); err == nil {
		t.Fatalf("gate accepted 9.7%% %s overhead against a 5%% budget", layer)
	}
	// A layer that is not named in -max-overhead is not gated.
	if err := gateLayers(t, layers, budgets{}); err != nil {
		t.Fatalf("unnamed %s layer still tripped the gate: %v", layer, err)
	}
}

func testLayerAbsentInCandidate(t *testing.T, layer string) {
	// A candidate without the layer passes while the layer is not
	// named...
	if err := gateLayers(t, "", budgets{}); err != nil {
		t.Fatalf("gate tripped on a report without %s data: %v", layer, err)
	}
	// ...but a named layer the candidate lacks is an error rather than
	// a silently disarmed gate.
	if err := gateLayers(t, "", budgets{layer: 5}); err == nil {
		t.Fatalf("gate accepted a candidate missing the budgeted %s layer", layer)
	}
	if err := gateLayers(t, `{"other": 1}`, budgets{layer: 5}); err == nil {
		t.Fatalf("gate accepted a layers map without the budgeted %s layer", layer)
	}
}

func TestGateFleetOverheadWithinBudget(t *testing.T)      { testLayerWithinBudget(t, "fleet") }
func TestGateFleetOverheadOverBudget(t *testing.T)        { testLayerOverBudget(t, "fleet") }
func TestGateFleetOverheadAbsentInCandidate(t *testing.T) { testLayerAbsentInCandidate(t, "fleet") }

func TestGateIncidentOverheadWithinBudget(t *testing.T) { testLayerWithinBudget(t, "incidents") }
func TestGateIncidentOverheadOverBudget(t *testing.T)   { testLayerOverBudget(t, "incidents") }
func TestGateIncidentOverheadAbsentInCandidate(t *testing.T) {
	testLayerAbsentInCandidate(t, "incidents")
}

func TestGateDriftOverheadWithinBudget(t *testing.T)      { testLayerWithinBudget(t, "drift") }
func TestGateDriftOverheadOverBudget(t *testing.T)        { testLayerOverBudget(t, "drift") }
func TestGateDriftOverheadAbsentInCandidate(t *testing.T) { testLayerAbsentInCandidate(t, "drift") }

func TestGateSocketOverheadWithinBudget(t *testing.T)      { testLayerWithinBudget(t, "socket") }
func TestGateSocketOverheadOverBudget(t *testing.T)        { testLayerOverBudget(t, "socket") }
func TestGateSocketOverheadAbsentInCandidate(t *testing.T) { testLayerAbsentInCandidate(t, "socket") }

// TestGateLayerOverheadReportsEveryBreach: all budgets are checked in
// one loop before the gate fails, so the error names every breach.
func TestGateLayerOverheadReportsEveryBreach(t *testing.T) {
	err := gateLayers(t, `{"fleet": 9.7, "drift": 3.2, "socket": 11.6}`,
		budgets{"fleet": 5, "drift": 5, "socket": 5})
	if err == nil {
		t.Fatal("gate accepted 9.7% fleet and 11.6% socket overhead against 5% budgets")
	}
	for _, layer := range []string{"fleet", "socket"} {
		if !strings.Contains(err.Error(), layer) {
			t.Fatalf("gate error %q does not name the %s breach", err, layer)
		}
	}
	if strings.Contains(err.Error(), "drift") {
		t.Fatalf("gate error %q names the in-budget drift layer", err)
	}
}

// TestMaxOverheadFlag: -max-overhead takes one layer=pct per flag and
// rejects values it cannot gate on unambiguously.
func TestMaxOverheadFlag(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		want    budgets
		wantErr bool
	}{
		{args: []string{"-max-overhead", "fleet=5", "-max-overhead", "socket=2.5"}, want: budgets{"fleet": 5, "socket": 2.5}},
		{args: []string{"-max-overhead", "fleet"}, wantErr: true},
		{args: []string{"-max-overhead", "=5"}, wantErr: true},
		{args: []string{"-max-overhead", "fleet=five"}, wantErr: true},
		{args: []string{"-max-overhead", "fleet=5,socket=5"}, wantErr: true},
		{args: []string{"-max-overhead", "fleet=5", "-max-overhead", "fleet=7"}, wantErr: true},
	} {
		b := budgets{}
		fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Var(b, "max-overhead", "")
		err := fs.Parse(tc.args)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%v: err = %v, want error %v", tc.args, err, tc.wantErr)
		}
		if !tc.wantErr && !reflect.DeepEqual(b, tc.want) {
			t.Fatalf("%v: parsed %v, want %v", tc.args, b, tc.want)
		}
	}
}

// TestGateRejectsMismatchedWorkload: a candidate that replayed a
// different capture size or batch size is not comparable with the
// baseline, however its throughput looks.
func TestGateRejectsMismatchedWorkload(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", `{"records": 10000, "batch": 64, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000}
	]}`)
	for name, body := range map[string]string{
		"records": `{"records": 500, "batch": 64, "runs": [{"name": "sequential", "frames_per_sec": 1000}]}`,
		"batch":   `{"records": 10000, "batch": 1, "runs": [{"name": "sequential", "frames_per_sec": 1000}]}`,
	} {
		cand := writeReport(t, dir, name+".json", body)
		if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err == nil {
			t.Errorf("gate accepted a candidate with a different %s", name)
		}
	}
}

// TestGateSpeedupIgnoresSocketRuns: the plain-parallel speedup gate
// must not count socket-source runs — their speedup figure includes
// ingestion cost, not just pipeline scaling.
func TestGateSpeedupIgnoresSocketRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// The only runs above the 2.0x bar are socket runs; the sole plain
	// run is flat, so the gate must fail rather than credit ingestion
	// configs.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 4, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01},
	  {"name": "parallel4+socket", "workers": 4, "layer": "socket", "frames_per_sec": 2500, "speedup_vs_sequential": 2.5}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 100, minSpeedup: 2.0, maxAllocs: -1}); err == nil {
		t.Fatal("speedup gate credited a socket-source run")
	}
}

// speedupReport is a multi-core candidate whose best plain parallel
// run (parallel4) reached 2.5x; parallel4+metrics is faster still but
// instrumented runs must not count toward the gate.
const speedupReport = `{"records": 100, "num_cpu": 4, "runs": [
  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
  {"name": "parallel4",  "workers": 4, "frames_per_sec": 2500, "speedup_vs_sequential": 2.5},
  {"name": "parallel4+metrics", "workers": 4, "layer": "metrics", "frames_per_sec": 2600, "speedup_vs_sequential": 2.6},
  {"name": "parallel8",  "workers": 8, "frames_per_sec": 2400, "speedup_vs_sequential": 2.4}
]}`

func TestGateParallelSpeedupPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", speedupReport)
	if err := gate(base, cand, limits{maxDrop: 100, minSpeedup: 2.0, maxAllocs: -1}); err != nil {
		t.Fatalf("gate tripped on a 2.5x best speedup against a 2.0x minimum: %v", err)
	}
}

func TestGateParallelSpeedupFailsWhenFlat(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// The historical failure mode: parallel runs at sequential speed.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 4, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01},
	  {"name": "parallel8",  "workers": 8, "frames_per_sec": 990, "speedup_vs_sequential": 0.99}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 100, minSpeedup: 2.0, maxAllocs: -1}); err == nil {
		t.Fatal("gate accepted a flat parallel speedup on a 4-CPU host")
	}
}

func TestGateParallelSpeedupSkipsOnSingleCPU(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseReport)
	// Same flat numbers, but the candidate ran on one CPU: the
	// expectation is physically meaningless there, so the gate must
	// skip rather than fail the PR for its runner's hardware.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "num_cpu": 1, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "speedup_vs_sequential": 1.0},
	  {"name": "parallel4",  "workers": 4, "frames_per_sec": 1010, "speedup_vs_sequential": 1.01}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 100, minSpeedup: 2.0, maxAllocs: -1}); err != nil {
		t.Fatalf("speedup gate did not skip on a single-CPU candidate: %v", err)
	}
}

const allocsBaseReport = `{"records": 100, "runs": [
  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 40},
  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 10},
  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10}
]}`

func TestGateAllocsWithinBudget(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", allocsBaseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 42},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 11},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10.5}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: 25}); err != nil {
		t.Fatalf("gate tripped on ~10%% median allocs growth under a 25%% budget: %v", err)
	}
}

func TestGateAllocsOverBudget(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", allocsBaseReport)
	// Allocations doubled across the board — a per-frame allocation
	// crept back into the pooled hot path.
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 80},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 20},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 20}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: 25}); err == nil {
		t.Fatal("gate accepted a 100% allocs-per-frame growth against a 25% budget")
	}
	// Negative budget disables the allocation gate entirely.
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: -1}); err != nil {
		t.Fatalf("disabled allocs gate still tripped: %v", err)
	}
}

func TestGateAllocsSkipsOldBaseline(t *testing.T) {
	dir := t.TempDir()
	// A baseline from before the allocs_per_frame field: no meaningful
	// comparison exists, so the gate skips instead of dividing by zero
	// or failing the PR.
	base := writeReport(t, dir, "base.json", baseReport)
	cand := writeReport(t, dir, "cand.json", `{"records": 100, "runs": [
	  {"name": "sequential", "frames_per_sec": 1000, "allocs_per_frame": 40},
	  {"name": "parallel4",  "frames_per_sec": 2000, "allocs_per_frame": 10},
	  {"name": "parallel8",  "frames_per_sec": 2500, "allocs_per_frame": 10}
	]}`)
	if err := gate(base, cand, limits{maxDrop: 10, maxAllocs: 25}); err != nil {
		t.Fatalf("allocs gate did not skip on a baseline without the field: %v", err)
	}
}
