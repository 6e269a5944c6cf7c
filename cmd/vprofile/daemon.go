package main

// The daemon-facing subcommands: attach/detach/status/tail talk to a
// running vprofiled over its control API. attach reuses the engine
// flag set (RegisterFlags) so the knobs that configure a batch
// `vprofile detect` configure a daemon bus with the same names and
// defaults — flag parity is structural. Flags that only make sense
// in-process (-metrics, -events, -incidents, -model-watch) and -workers
// (every daemon bus shares the daemon's worker pool) are rejected with
// an explanation instead of silently ignored.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlclient"
	"vprofile/internal/engine"
)

func cmdAttach(args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	fl := engine.RegisterFlags(fs)
	controlAddr := fs.String("control", "127.0.0.1:9620", "daemon control address")
	bus := fs.String("bus", "", "bus name to attach (required)")
	listen := fs.String("listen", "", "ingest endpoint the daemon should accept the feed on: tcp://host:port, unix:///path.sock or udp://host:port (required)")
	wait := fs.Duration("wait", 2*time.Minute, "with -capture: how long to wait for the daemon to finish processing the streamed capture")
	fs.Parse(args)
	if *bus == "" || *listen == "" {
		return errors.New("attach: -bus and -listen are required")
	}
	if fl.Model == "" {
		return errors.New("attach: -model is required")
	}
	// Session-local observability runs inside the daemon process, not
	// the client; refuse rather than silently drop.
	switch {
	case fl.MetricsAddr != "":
		return errors.New("attach: -metrics is not available in daemon mode (scrape the daemon instead)")
	case fl.EventsPath != "":
		return errors.New("attach: -events is not available in daemon mode (use the policy's alarms.events, or `vprofile tail`)")
	case fl.Incidents:
		return errors.New("attach: -incidents is not available in daemon mode")
	case fl.ModelWatch != 0:
		return errors.New("attach: -model-watch is not available in daemon mode (use `vprofile swap` via the API or a policy reload)")
	case fl.Workers != 0:
		return errors.New("attach: -workers is not available in daemon mode (every bus shares the daemon's worker pool, sized by GOMAXPROCS)")
	}

	spec := controlapi.BusSpec{
		Bus: *bus, Listen: *listen, Model: fl.Model,
		Quarantine: fl.Quarantine, Recover: fl.Recover, Drift: fl.Drift,
		FlightDir: fl.FlightDir,
	}
	if fl.FlightDir != "" {
		spec.FlightWindow = fl.FlightWindow
	}
	if fl.Stall > 0 {
		spec.StallTimeout = fl.Stall.String()
	}

	c := controlclient.New(*controlAddr)
	ctx := context.Background()
	st, err := c.Attach(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Printf("attached bus %s: ingest %s (model %s, version %d)\n",
		st.Bus, st.Ingest, st.Model, st.ModelVersion)

	if fl.Capture == "" {
		return nil
	}
	// Attach-and-stream: push the capture into the ingest endpoint,
	// wait for the daemon to finish it, print the daemon's tally.
	n, err := controlclient.StreamCapture(*listen, fl.Capture, controlclient.StreamConfig{})
	if err != nil {
		return fmt.Errorf("stream %s: %w", fl.Capture, err)
	}
	fmt.Printf("streamed %d bytes from %s\n", n, fl.Capture)
	wctx, cancel := context.WithTimeout(ctx, *wait)
	defer cancel()
	st, err = c.WaitBusDone(wctx, *bus, 1)
	if err != nil {
		return err
	}
	printBusStatus(st)
	if st.SessionsAborted > 0 {
		return &engine.AbortError{Err: fmt.Errorf("daemon session aborted: %s", st.LastError)}
	}
	return nil
}

func cmdDetach(args []string) error {
	fs := flag.NewFlagSet("detach", flag.ExitOnError)
	controlAddr := fs.String("control", "127.0.0.1:9620", "daemon control address")
	bus := fs.String("bus", "", "bus name to detach (required)")
	fs.Parse(args)
	if *bus == "" {
		return errors.New("detach: -bus is required")
	}
	st, err := controlclient.New(*controlAddr).Detach(context.Background(), *bus)
	if err != nil {
		return err
	}
	fmt.Printf("detached bus %s: %d sessions served, %d aborted\n",
		st.Bus, st.Sessions, st.SessionsAborted)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	controlAddr := fs.String("control", "127.0.0.1:9620", "daemon control address")
	bus := fs.String("bus", "", "show one bus instead of the whole daemon")
	asJSON := fs.Bool("json", false, "print the raw JSON response")
	fs.Parse(args)
	c := controlclient.New(*controlAddr)
	ctx := context.Background()
	if *bus != "" {
		st, err := c.Bus(ctx, *bus)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(st)
		}
		printBusStatus(st)
		return nil
	}
	resp, err := c.Status(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(resp)
	}
	if resp.PolicyPath != "" {
		fmt.Printf("policy: %s (gen %d)\n", resp.PolicyPath, resp.PolicyGen)
	}
	if resp.Draining {
		fmt.Println("daemon is draining")
	}
	fmt.Printf("%d bus(es) attached\n", len(resp.Buses))
	for _, st := range resp.Buses {
		fmt.Println()
		printBusStatus(st)
	}
	return nil
}

func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	controlAddr := fs.String("control", "127.0.0.1:9620", "daemon control address")
	after := fs.Uint64("after", 0, "start cursor (0 = everything still buffered)")
	once := fs.Bool("once", false, "drain the buffered events and exit instead of following")
	fs.Parse(args)
	c := controlclient.New(*controlAddr)
	ctx := context.Background()
	cursor := *after
	for {
		wait := 30 * time.Second
		if *once {
			wait = 0
		}
		resp, err := c.Events(ctx, cursor, 0, wait)
		if err != nil {
			return err
		}
		if resp.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "tail: %d events aged out of the daemon buffer\n", resp.Dropped)
		}
		enc := json.NewEncoder(os.Stdout)
		for _, e := range resp.Events {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
		cursor = resp.Next
		if *once {
			return nil
		}
	}
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printBusStatus(st controlapi.BusStatus) {
	fmt.Printf("bus %s: %s, ingest %s, model %s (version %d)\n",
		st.Bus, st.State, st.Ingest, st.Model, st.ModelVersion)
	fmt.Printf("  sessions: %d served, %d done, %d aborted\n",
		st.Sessions, st.SessionsDone, st.SessionsAborted)
	if st.LastError != "" {
		fmt.Printf("  last error: %s\n", st.LastError)
	}
	t := st.Tally
	if t == nil {
		return
	}
	fmt.Printf("  tally: %d frames, %d voltage alarms, %d preprocess failures, %d timing alarms, %d transport errors, %d suppressed\n",
		t.Frames, t.VoltAlarms, t.PreprocFailed, t.PeriodAlarms, t.TPErrors, t.Suppressed)
	if t.Corruptions > 0 {
		fmt.Printf("  capture corruption: %d stretches recovered\n", t.Corruptions)
	}
	if t.DegradedSAs > 0 {
		fmt.Printf("  quarantine: %d SAs degraded\n", t.DegradedSAs)
	}
	if t.Gaps != nil {
		fmt.Printf("  datagram gaps: %d lost, %d late, %d accepted\n",
			t.Gaps.LostChunks, t.Gaps.LateChunks, t.Gaps.Datagrams)
	}
	if len(t.SAs) > 0 {
		fmt.Printf("  %6s %8s %8s %8s %8s %10s\n", "SA", "frames", "volt", "timing", "tp", "last seen")
		for _, r := range t.SAs {
			fmt.Printf("  %#6x %8d %8d %8d %8d %9.2fs\n",
				r.SA, r.Frames, r.VoltAlarms, r.TimeAlarms, r.TPAlarms, r.LastSeen)
		}
	}
}
