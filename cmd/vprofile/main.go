// Command vprofile trains, runs and updates the vProfile sender
// identification system on capture files produced by tracegen.
//
// Usage:
//
//	vprofile train  -capture train.vptr -model model.vpm [-metric mahalanobis] [-margin 10]
//	vprofile detect -capture test.vptr  -model model.vpm [-labels test.labels.json] [-timeline] [-workers 8] [-metrics :9090] [-events run.jsonl] [-flight forensics/]
//	vprofile detect -capture a.vptr,b.vptr -model model.vpm [-incidents] [-quarantine]   (fleet mode)
//	vprofile update -capture new.vptr   -model model.vpm -out updated.vpm
//	vprofile info   -model model.vpm
//	vprofile faults -vehicle b -faults all -steps 6 -json sweep.json
//	vprofile arena  -vehicle a -train 1600 -n 400 -json DETECT_arena.json
//	vprofile attach -control 127.0.0.1:9620 -bus front -listen tcp://127.0.0.1:9700 -model model.vpm [-capture test.vptr]
//	vprofile detach -control 127.0.0.1:9620 -bus front
//	vprofile status [-control 127.0.0.1:9620] [-bus front] [-json]
//	vprofile tail   [-control 127.0.0.1:9620] [-after N] [-once]
//
// detect replays captures through the composed IDS — vProfile voltage
// fingerprinting, the period monitor and J1939 transport reassembly —
// with the session flag set internal/engine registers, including
// -recover, -quarantine, -stall-timeout and -model-watch. Exit status
// is 2 for usage errors, 3 when a replay aborts mid-stream (stall
// watchdog, unrecovered corruption), 1 for other errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "update":
		err = cmdUpdate(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "faults":
		err = cmdFaults(os.Args[2:])
	case "arena":
		err = cmdArena(os.Args[2:])
	case "attach":
		err = cmdAttach(os.Args[2:])
	case "detach":
		err = cmdDetach(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vprofile:", err)
		var abort *engine.AbortError
		var usage usageError
		switch {
		case errors.As(err, &abort):
			os.Exit(3)
		case errors.As(err, &usage):
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line; main exits 2 on it, as it does on
// an unknown subcommand.
type usageError string

func (e usageError) Error() string { return string(e) }

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vprofile {train|detect|update|info|faults|arena|attach|detach|status|tail} [flags]")
	os.Exit(2)
}

// readSamples preprocesses every record of a capture.
func readSamples(path string) ([]core.Sample, trace.Header, error) {
	rd, closer, err := trace.OpenPath(path)
	if err != nil {
		return nil, trace.Header{}, err
	}
	defer closer.Close()
	cfg := engine.ExtractionFor(rd.Header())
	var out []core.Sample
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, rd.Header(), err
		}
		res, err := edgeset.Extract(rec.Trace, cfg)
		if err != nil {
			return nil, rd.Header(), fmt.Errorf("record %d: %w", len(out), err)
		}
		out = append(out, core.Sample{SA: res.SA, Set: res.Set})
	}
	return out, rd.Header(), nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	capture := fs.String("capture", "", "training capture file")
	modelPath := fs.String("model", "model.vpm", "output model file")
	metricName := fs.String("metric", "mahalanobis", "distance metric: euclidean or mahalanobis")
	margin := fs.Float64("margin", 0, "detection margin added to each cluster threshold")
	clusters := fs.Int("clusters", 0, "cluster count for distance clustering (0 = merge threshold)")
	mergeAt := fs.Float64("merge", 0, "distance-clustering merge threshold")
	fs.Parse(args)
	if *capture == "" {
		return errors.New("train: -capture is required")
	}
	samples, _, err := readSamples(*capture)
	if err != nil {
		return err
	}
	metric := core.Mahalanobis
	if *metricName == "euclidean" {
		metric = core.Euclidean
	}
	model, err := core.Train(samples, core.TrainConfig{
		Metric: metric, Margin: *margin,
		TargetClusters: *clusters, MergeThreshold: *mergeAt,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained %s model: %d clusters from %d messages → %s\n",
		metric, len(model.Clusters), len(samples), *modelPath)
	if metric == core.Mahalanobis {
		for _, c := range model.Clusters {
			if c.N < 4*model.Dim {
				fmt.Printf("warning: cluster %d has only %d samples for %d dimensions; "+
					"its covariance is poorly conditioned — capture more traffic\n",
					c.ID, c.N, model.Dim)
			}
		}
	}
	return nil
}

func cmdUpdate(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	capture := fs.String("capture", "", "capture of accepted traffic to fold in")
	modelPath := fs.String("model", "model.vpm", "model to update")
	out := fs.String("out", "", "output model (default: overwrite input)")
	fs.Parse(args)
	if *capture == "" {
		return errors.New("update: -capture is required")
	}
	model, err := engine.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	samples, _, err := readSamples(*capture)
	if err != nil {
		return err
	}
	res, err := model.Update(samples)
	if err != nil {
		return err
	}
	dest := *out
	if dest == "" {
		dest = *modelPath
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("updated model with %d messages (%d skipped) → %s\n", res.Applied, res.Skipped, dest)
	if len(res.RetrainRecommended) > 0 {
		fmt.Printf("note: clusters %v reached the update bound; consider a full retrain\n", res.RetrainRecommended)
	}
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	modelPath := fs.String("model", "model.vpm", "model file")
	fs.Parse(args)
	model, err := engine.LoadModelFile(*modelPath)
	if err != nil {
		return err
	}
	report, err := model.BuildReport()
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}
