package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vprofile/internal/analog"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/faults"
	"vprofile/internal/obs"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// faultsPoint is one row of the sweep: detection quality at one fault
// intensity.
type faultsPoint struct {
	Intensity float64 `json:"intensity"`
	Spec      string  `json:"spec"`
	// Clean-traffic numbers: how much benign traffic the degraded
	// capture costs us.
	CleanFrames  int     `json:"clean_frames"`
	FalseAlarms  int     `json:"false_alarms"`
	FPR          float64 `json:"fpr"`
	ExtractFails int     `json:"extract_fails"`
	// Attack numbers: whether the detector still catches a foreign
	// device through the fault haze.
	AttackFrames int     `json:"attack_frames"`
	AttackCaught int     `json:"attack_caught"`
	TPR          float64 `json:"tpr"`
	// Quarantine numbers: alarms actually raised vs coalesced, and
	// how many SAs ended the run degraded.
	AlarmsRaised int `json:"alarms_raised"`
	Suppressed   int `json:"suppressed"`
	DegradedSAs  int `json:"degraded_sas"`
}

func vehicleByName(name string) (*vehicle.Vehicle, error) {
	switch name {
	case "a", "A":
		return vehicle.NewVehicleA(), nil
	case "b", "B":
		return vehicle.NewVehicleB(), nil
	case "sterling":
		return vehicle.NewSterlingActerra(), nil
	default:
		return nil, fmt.Errorf("unknown vehicle %q (want a, b or sterling)", name)
	}
}

// cmdFaults sweeps analog fault intensity against detection accuracy:
// train a model on clean traffic, then replay clean and foreign
// captures through the quarantine-enabled composite at increasing
// fault severity. Everything derives from the two seeds, so a sweep
// is bit-reproducible.
func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	vehicleName := fs.String("vehicle", "b", "vehicle to simulate: a, b or sterling")
	spec := fs.String("faults", "all", "fault mix swept from 0 to full intensity (ParseSpec syntax)")
	steps := fs.Int("steps", 6, "number of intensity steps including 0 and 1")
	trainN := fs.Int("train", 2000, "clean messages used to train the model")
	evalN := fs.Int("eval", 800, "clean messages replayed per intensity")
	attackN := fs.Int("attack", 200, "foreign-device messages replayed per intensity")
	foreign := fs.Int("foreign", 1, "ECU index the foreign device imitates")
	seed := fs.Int64("seed", 1, "traffic generation seed")
	faultSeed := fs.Int64("fault-seed", 1, "fault injection seed")
	jsonOut := fs.String("json", "", "also write the sweep as JSON to this file")
	workers := fs.Int("workers", 0, "extraction worker pool size (0 = GOMAXPROCS)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof/ on this address during the sweep, one bus label per intensity step (e.g. :9090)")
	stall := fs.Duration("stall-timeout", 0, "abort a step if its verdict stream stalls this long (0 disables the watchdog)")
	fs.Parse(args)

	base, err := faults.ParseSpec(*spec)
	if err != nil {
		return err
	}
	if base.Empty() {
		return errors.New("faults: the swept spec is empty")
	}
	if *steps < 2 {
		return errors.New("faults: need at least 2 steps")
	}
	v, err := vehicleByName(*vehicleName)
	if err != nil {
		return err
	}
	if *foreign < 0 || *foreign >= len(v.ECUs) {
		return fmt.Errorf("faults: vehicle %s has no ECU %d", v.Name, *foreign)
	}

	// Train on pristine traffic — the model must not know about the
	// faults it will be judged under.
	extraction := v.ExtractionConfig()
	var samples []core.Sample
	err = v.Stream(vehicle.GenConfig{NumMessages: *trainN, Seed: *seed}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, extraction)
		if err != nil {
			return err
		}
		samples = append(samples, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		return err
	}
	model, err := core.Train(samples, core.TrainConfig{Metric: core.Mahalanobis})
	if err != nil {
		return err
	}

	// Pre-render the evaluation traffic once; each intensity step
	// re-faults a fresh copy so steps never contaminate each other.
	clean, err := v.Generate(vehicle.GenConfig{NumMessages: *evalN, Seed: *seed + 1})
	if err != nil {
		return err
	}
	victim := v.ECUs[*foreign]
	attack, err := v.GenerateForeign(vehicle.ForeignDevice(victim.Transceiver), victim,
		vehicle.GenConfig{NumMessages: *attackN, Seed: *seed + 2})
	if err != nil {
		return err
	}

	// Every intensity step runs as a member of one fleet: one worker
	// pool, one stall watchdog setting, and with -metrics one server
	// whose per-bus labels are the steps.
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "faults: "+format+"\n", args...)
	}
	fleet, err := engine.NewFleet(nil, engine.WithModel(model), engine.WithWorkers(*workers),
		engine.WithQuarantine(true), engine.WithStallTimeout(*stall),
		engine.WithMetricsAddr(*metricsAddr), engine.WithLogf(logf))
	if err != nil {
		return err
	}
	defer func() { _ = fleet.Close() }()

	points := make([]faultsPoint, 0, *steps)
	for s := 0; s < *steps; s++ {
		k := float64(s) / float64(*steps-1)
		pt, err := faultsStep(fleet, fmt.Sprintf("step%d", s), v, base.Scale(k), k, *faultSeed, clean, attack)
		if err != nil {
			return fmt.Errorf("intensity %.2f: %w", k, err)
		}
		points = append(points, pt)
	}

	fmt.Printf("fault sweep: %s on %s (seed %d, fault seed %d)\n", base, v.Name, *seed, *faultSeed)
	fmt.Printf("%9s %8s %8s %9s %8s %8s %9s %9s\n",
		"intensity", "fpr", "tpr", "extract!", "alarms", "supp", "degraded", "spec")
	for _, p := range points {
		fmt.Printf("%9.2f %8.4f %8.4f %9d %8d %8d %9d  %s\n",
			p.Intensity, p.FPR, p.TPR, p.ExtractFails, p.AlarmsRaised, p.Suppressed, p.DegradedSAs, p.Spec)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

// faultsStep replays one intensity step as a fleet member named bus:
// the clean capture first (measuring false alarms), then the
// foreign-device capture (measuring whether the attack is still
// caught). Fault injection happens sequentially while staging the
// records — each pre-rendered trace is copied into a scratch trace
// first so steps never contaminate each other — and the session's
// in-order delivery turn keeps the accounting identical to a
// sequential replay.
func faultsStep(fleet *engine.Fleet, bus string, v *vehicle.Vehicle, spec faults.Spec, k float64, faultSeed int64, clean, attack *vehicle.Capture) (faultsPoint, error) {
	inj, err := faults.NewInjector(spec, faultSeed, v.ADC)
	if err != nil {
		return faultsPoint{}, err
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return faultsPoint{}, err
	}
	// The writer serialises each record before the next message
	// overwrites the scratch trace.
	var tr analog.Trace
	n := 0
	for _, msgs := range [][]vehicle.Message{clean.Messages, attack.Messages} {
		for _, m := range msgs {
			tr = append(tr[:0], m.Trace...)
			inj.Apply(n, m.ECUIndex, m.TimeSec, tr)
			n++
			if err := tw.Write(&trace.Record{TimeSec: m.TimeSec, FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: tr}); err != nil {
				return faultsPoint{}, err
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return faultsPoint{}, err
	}
	src, err := engine.NewStreamSource(bus, io.NopCloser(&buf))
	if err != nil {
		return faultsPoint{}, err
	}
	member, err := fleet.Attach(bus, src)
	if err != nil {
		_ = src.Close()
		return faultsPoint{}, err
	}

	pt := faultsPoint{Intensity: k, Spec: spec.String()}
	sum, err := member.Run(func(res engine.Result) error {
		r := res.Verdict
		suspicious := r.Flagged().Has(obs.AlarmAnalog)
		if r.ExtractErr != nil {
			pt.ExtractFails++
		}
		if res.Index >= len(clean.Messages) {
			pt.AttackFrames++
			if suspicious {
				pt.AttackCaught++
			}
		} else {
			pt.CleanFrames++
			if suspicious {
				pt.FalseAlarms++
			}
		}
		if r.Alarm() {
			pt.AlarmsRaised++
		}
		if r.Suppressed {
			pt.Suppressed++
		}
		return nil
	})
	if err != nil {
		return faultsPoint{}, err
	}
	if pt.CleanFrames > 0 {
		pt.FPR = float64(pt.FalseAlarms) / float64(pt.CleanFrames)
	}
	if pt.AttackFrames > 0 {
		pt.TPR = float64(pt.AttackCaught) / float64(pt.AttackFrames)
	}
	pt.DegradedSAs = sum.DegradedSAs
	return pt, nil
}
