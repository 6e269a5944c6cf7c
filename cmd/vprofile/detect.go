package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
	"vprofile/internal/trace"
)

// cmdDetect replays one capture through an engine session, or several
// concurrently as a fleet over one shared worker pool, and prints the
// headline, the voltage alarms by reason, each bus's summary and per-SA
// table, and (with -incidents) the incident table.
func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	fl := engine.RegisterFlags(fs)
	timeline := fs.Bool("timeline", false, "print every suspicious event")
	labelsPath := fs.String("labels", "", "ground-truth labels sidecar (tracegen -scenario); scores TPR/FPR against it")
	fs.Parse(args)
	if fl.Capture == "" {
		return usageError("detect: -capture is required")
	}
	if fl.Model == "" {
		fl.Model = "model.vpm"
	}
	captures := strings.Split(fl.Capture, ",")
	var board *engine.Scoreboard
	if *labelsPath != "" {
		if len(captures) > 1 {
			return usageError("detect: -labels scores a single capture")
		}
		var err error
		if board, err = engine.LoadScoreboard(*labelsPath); err != nil {
			return err
		}
	}

	// The session tallies every verdict and writes its events; the sink
	// scores the labels, breaks the voltage alarms down by reason
	// (printed in core.Reason order) and prints the timeline. A fleet
	// serialises its sink calls.
	var reasons [core.ReasonOverThreshold + 1]int
	sink := func(res engine.Result) error {
		v := res.Verdict
		if board != nil {
			board.Observe(res.Index, v)
		}
		if v.Flagged().Has(obs.AlarmVoltage) {
			reasons[v.Voltage.Reason]++
		}
		if *timeline {
			for _, e := range res.Events {
				if res.Bus != "" {
					fmt.Printf("[%s] ", res.Bus)
				}
				fmt.Println(timelineLine(e))
			}
		}
		return nil
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "detect: "+format+"\n", args...)
	}
	opts := append(fl.Options(), engine.WithLogf(logf))
	var sums []engine.Summary
	var incidents []incident.Snapshot
	var err error
	if len(captures) == 1 {
		var sum engine.Summary
		sum, err = engine.NewSession(captures[0], opts...).Run(sink)
		sum.Err = err
		sums, incidents = []engine.Summary{sum}, sum.Incidents
	} else {
		fleet, ferr := engine.NewFleet(captures, opts...)
		if ferr != nil {
			return ferr
		}
		sums, err = fleet.Run(sink)
		incidents = fleet.Incidents()
	}

	// A failed bus keeps its summary: the partial tally and stats still
	// describe everything delivered before the abort. A bus whose
	// capture never opened has no header and nothing to summarise; when
	// no bus opened, the error is the whole report.
	opened := func(sum engine.Summary) bool { return sum.Header != (trace.Header{}) }
	if err != nil && !slices.ContainsFunc(sums, opened) {
		return err
	}

	// A trace too mangled to preprocess is suspicious evidence, not a
	// replay failure: it is counted apart from the classified messages.
	// A capture with nothing classifiable flags 0%. Buses replay
	// concurrently, so the headline's wall time is the slowest bus's.
	var classified, flagged, workers int
	var wall time.Duration
	for _, sum := range sums {
		classified += sum.Tally.Frames() - sum.Tally.PreprocFailed
		flagged += sum.Tally.VoltAlarms
		wall = max(wall, sum.Stats.WallTime)
		workers = max(workers, sum.Stats.Workers)
	}
	pct := 0.0
	if classified > 0 {
		pct = 100 * float64(flagged) / float64(classified)
	}
	fmt.Printf("classified %d messages: %d flagged (%.4f%%) in %.2fs with %d workers\n",
		classified, flagged, pct, wall.Seconds(), workers)
	for r, n := range reasons {
		if n > 0 {
			fmt.Printf("  %-18s %d\n", core.Reason(r).String()+":", n)
		}
	}
	for _, sum := range sums {
		fmt.Println()
		if len(sums) > 1 {
			fmt.Printf("== bus %s ==\n", sum.Bus)
		}
		if sum.Err != nil {
			fmt.Printf("replay failed: %v\n", sum.Err)
		}
		if opened(sum) {
			printSummary(sum, fl)
		}
	}
	if fl.Incidents {
		fmt.Println()
		if len(sums) > 1 {
			fmt.Println("== fleet incidents ==")
		}
		fmt.Print(incident.FormatTable(incidents))
	}
	if board != nil {
		fmt.Println()
		fmt.Println(board)
	}
	return err
}

// printSummary renders one session's end-of-replay report.
func printSummary(sum engine.Summary, fl *engine.Flags) {
	h, t := sum.Header, sum.Tally
	fmt.Printf("capture: %s (%s, %.0f kb/s, %d-bit @ %.1f MS/s)\n",
		sum.Capture, h.Vehicle, h.BitRate/1e3, h.ADC.Bits, h.ADC.SampleRate/1e6)
	fmt.Printf("frames: %d over %.2fs, replayed in %.2fs on %d workers\n",
		sum.Stats.RecordsOut, t.LastAt, sum.Stats.WallTime.Seconds(), sum.Stats.Workers)
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

// timelineLine renders one event the way -timeline prints it.
func timelineLine(e obs.Event) string {
	switch e.Kind {
	case obs.EventPreprocess:
		return fmt.Sprintf("%10.4fs  VOLTAGE  SA %#02x preprocess-failed: %s", e.TimeSec, *e.SA, e.Detail)
	case obs.EventVoltage:
		return fmt.Sprintf("%10.4fs  VOLTAGE  SA %#02x %s (dist %.2f, predicted cluster %d)",
			e.TimeSec, *e.SA, e.Reason, e.Dist, e.Predict)
	case obs.EventTiming:
		return fmt.Sprintf("%10.4fs  TIMING   id %#08x arrived early", e.TimeSec, *e.FrameID)
	case obs.EventTransport:
		return fmt.Sprintf("%10.4fs  TP       SA %#02x malformed transport: %s", e.TimeSec, *e.SA, e.Detail)
	case obs.EventDM1:
		return fmt.Sprintf("%10.4fs  DM1      SA %#02x %s %d DTCs", e.TimeSec, *e.SA, e.Detail, e.DTCs)
	case obs.EventQuarantine:
		return fmt.Sprintf("%10.4fs  QUARANT  SA %#02x %s", e.TimeSec, *e.SA, e.Detail)
	}
	return fmt.Sprintf("%10.4fs  %s", e.TimeSec, e.Kind)
}
