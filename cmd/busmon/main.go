// Command busmon replays capture files through the full monitoring
// stack — vProfile voltage fingerprinting, the period monitor, and
// J1939 transport reassembly with DM1 decoding — and prints a timeline
// of everything suspicious plus a traffic summary. It is the composed
// IDS the paper's conclusion recommends; the session lifecycle (source
// opening, pipeline wiring, observability, model hot-swap) lives in
// internal/engine.
//
// Usage:
//
//	busmon -capture traffic.vptr -model model.vpm
//	busmon -capture traffic.vptr.gz -model model.vpm -timeline
//	busmon -capture traffic.vptr -model model.vpm -metrics :9090 -events run.jsonl
//	busmon -capture a.vptr,b.vptr -model model.vpm          (fleet mode)
//	busmon -capture a.vptr,b.vptr -model model.vpm -incidents -quarantine
//	busmon -capture traffic.vptr -model model.vpm -model-watch 2s
//
// Comma-separating -capture monitors several buses concurrently over
// one shared worker pool, with per-bus metrics labels and summaries.
// Exit status is 2 for usage errors, 3 when a replay aborts
// mid-stream (stall watchdog, unrecovered corruption), 1 for other
// errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"vprofile/internal/engine"
	"vprofile/internal/obs/incident"
)

func main() {
	fl := engine.RegisterFlags(flag.CommandLine)
	timeline := flag.Bool("timeline", false, "print every suspicious event")
	flag.Parse()
	if fl.Capture == "" || fl.Model == "" {
		fmt.Fprintln(os.Stderr, "busmon: -capture and -model are required")
		os.Exit(2)
	}
	if err := run(fl, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "busmon:", err)
		var abort *engine.AbortError
		if errors.As(err, &abort) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(fl *engine.Flags, timeline bool) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "busmon: "+format+"\n", args...)
	}
	opts := append(fl.Options(), engine.WithLogf(logf))
	captures := strings.Split(fl.Capture, ",")
	if len(captures) == 1 {
		return runSingle(captures[0], fl, timeline, opts)
	}
	return runFleet(captures, fl, timeline, opts)
}

func runSingle(capture string, fl *engine.Flags, timeline bool, opts []engine.Option) error {
	var sink engine.Sink
	if timeline {
		sink = func(res engine.Result) error {
			for _, e := range res.Events {
				fmt.Println(timelineLine(e))
			}
			return nil
		}
	}
	sum, err := engine.NewSession(capture, opts...).Run(sink)
	if err != nil {
		return err
	}
	printSummary(sum, fl)
	if fl.Incidents {
		fmt.Println()
		fmt.Print(incident.FormatTable(sum.Incidents))
	}
	return nil
}

func runFleet(captures []string, fl *engine.Flags, timeline bool, opts []engine.Option) error {
	fleet, err := engine.NewFleet(captures, opts...)
	if err != nil {
		return err
	}
	var sink engine.Sink
	if timeline {
		sink = func(res engine.Result) error {
			for _, e := range res.Events {
				fmt.Printf("[%s] %s\n", res.Bus, timelineLine(e))
			}
			return nil
		}
	}
	sums, err := fleet.Run(sink)
	for i, sum := range sums {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("== bus %s ==\n", sum.Bus)
		if sum.Err != nil {
			fmt.Printf("replay failed: %v\n", sum.Err)
			// Fall through: the partial tally and stats still describe
			// everything delivered before the abort.
		}
		printSummary(sum, fl)
	}
	if fl.Incidents {
		fmt.Println()
		fmt.Println("== fleet incidents ==")
		fmt.Print(incident.FormatTable(fleet.Incidents()))
	}
	return err
}

// printSummary renders one session's end-of-replay report.
func printSummary(sum engine.Summary, fl *engine.Flags) {
	h, t := sum.Header, sum.Tally
	fmt.Printf("capture: %s (%s, %.0f kb/s, %d-bit @ %.1f MS/s)\n",
		sum.Capture, h.Vehicle, h.BitRate/1e3, h.ADC.Bits, h.ADC.SampleRate/1e6)
	fmt.Printf("frames: %d over %.2fs (replayed in %.2fs, %d workers, %.0f%% busy)\n",
		sum.Stats.RecordsOut, t.LastAt, sum.Stats.WallTime.Seconds(), sum.Stats.Workers, 100*sum.Stats.Utilization())
	fmt.Printf("voltage alarms: %d | preprocess failures: %d | timing alarms: %d | silent ids at end: %d\n",
		t.VoltAlarms, t.PreprocFailed, t.PeriodAlarms, len(sum.SilentStreams))
	fmt.Printf("transport transfers: %d (DM1 reports: %d) | transport errors: %d | monitor faults: %d\n",
		t.TPTransfers, t.DM1Reports, t.TPErrors, t.TimingFaults)
	if len(sum.Corruptions) > 0 {
		var skipped int64
		for _, c := range sum.Corruptions {
			skipped += c.Skipped
		}
		fmt.Printf("capture corruption: %d stretches recovered, %d bytes resynced past\n",
			len(sum.Corruptions), skipped)
	}
	if fl.Quarantine {
		fmt.Printf("quarantine: %d alarms coalesced | %d SAs degraded at end\n",
			t.Suppressed, sum.DegradedSAs)
	}
	if sum.Flight != nil {
		fmt.Printf("flight recorder: %d frames traced, %d alarms, %d bundles → %s\n",
			sum.Flight.Frames, sum.Flight.Alarms, sum.Flight.Bundles, fl.FlightDir)
	}
	if sum.ModelSwaps > 0 {
		fmt.Printf("model: %d hot swaps, final version %d\n", sum.ModelSwaps, sum.ModelVersion)
	}
	if sum.Drift != nil {
		t.SetDrift(sum.Drift)
		fmt.Printf("drift: %d SAs warning, %d SAs alarm (baseline generation %d)\n",
			sum.Drift.Warning, sum.Drift.Alarming, sum.Drift.Generation)
	}
	fmt.Println()
	fmt.Print(t.Table())
}
