// Command benchgate is the benchmark-regression gate: it compares a
// freshly generated replaybench report against the committed baseline
// (BENCH_pipeline.json) and fails when replay throughput regressed.
// Its `detect` subcommand is the detection-quality analogue, diffing
// vprofile arena reports (see detect.go).
//
// Usage:
//
//	benchgate -baseline BENCH_pipeline.json -candidate /tmp/bench.json [-max-drop 10] [-max-overhead layer=pct ...]
//	benchgate detect -baseline DETECT_arena.json -candidate /tmp/arena.json [-max-tpr-drop 2] [-max-fpr-rise 1]
//
// For every configuration present in both reports it computes the
// throughput drop in percent (positive = candidate slower). The gate
// trips when the MEDIAN drop across configurations exceeds -max-drop:
// a real regression in the capture→verdict path slows most
// configurations together, while host noise on a shared CI runner
// scatters — one slow outlier must not block a PR, and one lucky fast
// run must not mask a systemic slowdown. The worst single
// configuration is still printed so a localized regression (say, only
// the fault-layer path) stays visible in the log even when the median
// passes. Each -max-overhead layer=pct bounds one entry of the
// candidate's `layers` map; the two reports must have replayed the
// same records at the same batch size.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// report mirrors the subset of the replaybench schema the gate needs;
// unknown fields (metadata, per-run overheads) pass through untouched,
// so the two tools can evolve independently. Layers is read only from
// the candidate: replaybench measured each layer against its base row
// inside one run, so host speed cancels out and the overhead gates
// against an absolute budget rather than against the baseline.
type report struct {
	Records int                `json:"records"`
	Batch   int                `json:"batch"`
	NumCPU  int                `json:"num_cpu"`
	Layers  map[string]float64 `json:"layers"`
	Runs    []run              `json:"runs"`
}

type run struct {
	Name           string  `json:"name"`
	Workers        int     `json:"workers"`
	Layer          string  `json:"layer"`
	Buses          int     `json:"buses"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	Speedup        float64 `json:"speedup_vs_sequential"`
	AllocsPerFrame float64 `json:"allocs_per_frame"`
}

// limits are the gate's bounds.
type limits struct {
	maxDrop     float64 // median throughput drop, percent
	maxOverhead budgets // per-layer overhead budgets, percent
	minSpeedup  float64 // best plain parallel speedup (0 disables)
	maxAllocs   float64 // median allocs-per-frame growth, percent (negative disables)
}

// budgets is the repeatable -max-overhead layer=pct flag.
type budgets map[string]float64

func (b budgets) String() string { return fmt.Sprint(map[string]float64(b)) }

func (b budgets) Set(v string) error {
	layer, pct, ok := strings.Cut(v, "=")
	if !ok || layer == "" {
		return fmt.Errorf("want layer=pct, got %q", v)
	}
	if _, dup := b[layer]; dup {
		return fmt.Errorf("layer %q has two budgets", layer)
	}
	p, err := strconv.ParseFloat(pct, 64)
	if err != nil {
		return fmt.Errorf("layer %q: budget %q is not a number", layer, pct)
	}
	b[layer] = p
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "detect" {
		detectMain(os.Args[2:])
		return
	}
	lim := limits{maxOverhead: budgets{}}
	baseline := flag.String("baseline", "BENCH_pipeline.json", "committed baseline report")
	candidate := flag.String("candidate", "", "freshly generated report to gate")
	flag.Float64Var(&lim.maxDrop, "max-drop", 10, "maximum tolerated median throughput drop in percent")
	flag.Var(lim.maxOverhead, "max-overhead", "layer=pct: maximum tolerated overhead of one optional layer (the candidate's layers.<layer>) in percent; repeat once per gated layer")
	flag.Float64Var(&lim.minSpeedup, "min-parallel-speedup", 0, "minimum speedup-vs-sequential the best plain parallel run must reach (0 disables; skipped with a notice when the candidate ran on < 2 CPUs)")
	flag.Float64Var(&lim.maxAllocs, "max-allocs-growth", -1, "maximum tolerated median allocs-per-frame growth in percent (negative disables; skipped when the baseline predates the field)")
	flag.Parse()
	if *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -candidate is required")
		os.Exit(2)
	}
	if err := gate(*baseline, *candidate, lim); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func load(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return r, fmt.Errorf("%s: no runs", path)
	}
	return r, nil
}

func gate(basePath, candPath string, lim limits) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := load(candPath)
	if err != nil {
		return err
	}
	// Throughput and allocations per frame depend on the workload
	// size: a short capture amortises setup over fewer frames. Reports
	// of different shapes are not comparable.
	if base.Records != cand.Records || base.Batch != cand.Batch {
		return fmt.Errorf("%s ran %d records at batch %d but %s ran %d at batch %d — regenerate the candidate with the baseline's -records and -batch",
			basePath, base.Records, base.Batch, candPath, cand.Records, cand.Batch)
	}

	baseBy := make(map[string]float64, len(base.Runs))
	for _, r := range base.Runs {
		if r.FramesPerSec > 0 {
			baseBy[r.Name] = r.FramesPerSec
		}
	}

	type delta struct {
		name string
		drop float64 // percent; positive = candidate slower
	}
	var deltas []delta
	for _, r := range cand.Runs {
		b, ok := baseBy[r.Name]
		if !ok || r.FramesPerSec <= 0 {
			continue
		}
		deltas = append(deltas, delta{r.Name, 100 * (b - r.FramesPerSec) / b})
	}
	if len(deltas) == 0 {
		return fmt.Errorf("no configuration appears in both %s and %s — did the run names change?", basePath, candPath)
	}

	sort.Slice(deltas, func(i, j int) bool { return deltas[i].drop > deltas[j].drop })
	for _, d := range deltas {
		mark := " "
		if d.drop > lim.maxDrop {
			mark = "!"
		}
		fmt.Printf("%s %-22s %+7.2f%%\n", mark, d.name, -d.drop)
	}
	median := deltas[len(deltas)/2].drop
	worst := deltas[0]
	fmt.Printf("benchgate: %d configs compared, median drop %.2f%%, worst %.2f%% (%s), limit %.0f%%\n",
		len(deltas), median, worst.drop, worst.name, lim.maxDrop)
	if median > lim.maxDrop {
		return fmt.Errorf("median throughput dropped %.2f%% vs %s (limit %.0f%%)", median, basePath, lim.maxDrop)
	}

	// The overhead gates are absolute: replaybench measured every
	// layered row against its base row inside one run. A budgeted
	// layer the candidate did not measure is an error — a renamed or
	// dropped row must not disarm its gate silently. Every budget is
	// checked before failing, so the log names every breach.
	layers := make([]string, 0, len(lim.maxOverhead))
	for l := range lim.maxOverhead {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var breaches []error
	for _, l := range layers {
		pct, ok := cand.Layers[l]
		if !ok {
			breaches = append(breaches, fmt.Errorf("%s has no %q layer to gate", candPath, l))
			continue
		}
		limit := lim.maxOverhead[l]
		fmt.Printf("benchgate: %s overhead %.2f%%, limit %.0f%%\n", l, pct, limit)
		if pct > limit {
			breaches = append(breaches, fmt.Errorf("%s overhead %.2f%% exceeds %.0f%%", l, pct, limit))
		}
	}
	if len(breaches) > 0 {
		return errors.Join(breaches...)
	}

	// The parallel-speedup gate is the guard against the flat-speedup
	// failure mode this repo once shipped: a report where every
	// parallel configuration ran at the same throughput as sequential
	// because the harness never raised GOMAXPROCS. It takes the BEST
	// speedup among plain parallel runs (no instrumentation, single
	// bus) — the gate asks "can the pipeline scale at all", not "does
	// every worker count scale". On a single-core runner a parallel
	// speedup expectation is physically meaningless, so the gate skips
	// loudly rather than fail a PR for the hardware it landed on.
	if lim.minSpeedup > 0 {
		if cand.NumCPU < 2 {
			fmt.Printf("benchgate: SKIPPING parallel-speedup gate — candidate ran on %d CPU(s); need >= 2 for real parallelism\n", cand.NumCPU)
		} else {
			bestSpeedup, bestName := 0.0, ""
			for _, r := range cand.Runs {
				if r.Workers > 1 && r.Layer == "" && r.Buses <= 1 && r.Speedup > bestSpeedup {
					bestSpeedup, bestName = r.Speedup, r.Name
				}
			}
			if bestName == "" {
				return fmt.Errorf("no plain parallel run in %s to gate the speedup on", candPath)
			}
			fmt.Printf("benchgate: best parallel speedup %.2fx (%s), minimum %.2fx\n", bestSpeedup, bestName, lim.minSpeedup)
			if bestSpeedup < lim.minSpeedup {
				return fmt.Errorf("best parallel speedup %.2fx (%s) is below the %.2fx minimum — the pipeline is not scaling", bestSpeedup, bestName, lim.minSpeedup)
			}
		}
	}

	// The allocation gate compares allocs-per-frame per configuration
	// and trips on the median growth, mirroring the throughput gate's
	// noise reasoning. Baselines predating the field decode to zero —
	// no meaningful comparison exists, so the gate skips loudly until
	// the baseline is regenerated.
	if lim.maxAllocs >= 0 {
		baseAllocs := make(map[string]float64, len(base.Runs))
		for _, r := range base.Runs {
			if r.AllocsPerFrame > 0 {
				baseAllocs[r.Name] = r.AllocsPerFrame
			}
		}
		var growths []float64
		for _, r := range cand.Runs {
			b, ok := baseAllocs[r.Name]
			if !ok || r.AllocsPerFrame <= 0 {
				continue
			}
			growths = append(growths, 100*(r.AllocsPerFrame-b)/b)
		}
		if len(growths) == 0 {
			fmt.Printf("benchgate: SKIPPING allocs-per-frame gate — %s has no allocs_per_frame data (regenerate the baseline)\n", basePath)
		} else {
			sort.Float64s(growths)
			medGrowth := growths[len(growths)/2]
			fmt.Printf("benchgate: %d configs compared on allocs/frame, median growth %.2f%%, limit %.0f%%\n", len(growths), medGrowth, lim.maxAllocs)
			if medGrowth > lim.maxAllocs {
				return fmt.Errorf("median allocs-per-frame grew %.2f%% vs %s (limit %.0f%%) — a per-frame allocation crept into the hot path", medGrowth, basePath, lim.maxAllocs)
			}
		}
	}
	return nil
}
