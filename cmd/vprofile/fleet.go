package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"vprofile/internal/engine"
	"vprofile/internal/obs"
	"vprofile/internal/obs/incident"
)

// cmdFleet classifies several captures concurrently over one shared
// worker pool — the multi-bus deployment shape, with per-bus metrics
// labels, a shared event log and one hot-swappable model.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	fl := engine.RegisterFlags(fs)
	verbose := fs.Bool("v", false, "print every anomalous message")
	fs.Parse(args)
	if fl.Capture == "" {
		return errors.New("fleet: -capture is required (comma-separated capture files)")
	}
	if fl.Model == "" {
		fl.Model = "model.vpm"
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
	}
	captures := strings.Split(fl.Capture, ",")
	fleet, err := engine.NewFleet(captures, append(fl.Options(), engine.WithLogf(logf))...)
	if err != nil {
		return err
	}
	var sink engine.Sink
	if *verbose {
		sink = func(res engine.Result) error {
			r := res.Result
			if d := r.Verdict.Voltage; r.Verdict.Flagged().Has(obs.AlarmVoltage) {
				fmt.Printf("[%s] message %6d: SA %#02x flagged (%s, dist %.2f)\n",
					res.Bus, r.Index, uint8(r.Frame.SA()), d.Reason, d.MinDist)
			}
			return nil
		}
	}
	sums, err := fleet.Run(sink)
	for _, sum := range sums {
		t := sum.Tally
		status := "ok"
		if sum.Err != nil {
			status = sum.Err.Error()
		}
		fmt.Printf("bus %-12s %7d messages, %5d flagged, %4d preprocess failures, %.2fs — %s\n",
			sum.Bus, t.Frames(), t.VoltAlarms, t.PreprocFailed, sum.Stats.WallTime.Seconds(), status)
		if sum.ModelSwaps > 0 {
			fmt.Printf("bus %-12s model: %d hot swaps, final version %d\n", sum.Bus, sum.ModelSwaps, sum.ModelVersion)
		}
	}
	if fl.Incidents {
		fmt.Print(incident.FormatTable(fleet.Incidents()))
	}
	return err
}
