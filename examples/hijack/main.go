// Hijack detection on a raw digitizer feed: a continuous sample
// stream carries normal traffic interleaved with frames from a
// compromised body controller that forges the engine ECU's source
// address (the Miller-Valasek threat the paper's introduction
// motivates). The segmenter cuts the stream into capture records, the
// engine session runs them through the composite IDS, and every
// voltage alarm names the cluster, and so the ECU, that actually sent
// the frame.
//
//	go run ./examples/hijack
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math/rand"
	"slices"

	"vprofile/internal/analog"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/edgeset"
	"vprofile/internal/engine"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

func main() {
	v := vehicle.NewVehicleA()
	cfg := v.ExtractionConfig()

	// Train on clean traffic.
	var training []core.Sample
	err := v.Stream(vehicle.GenConfig{NumMessages: 2500, Seed: 10}, func(m vehicle.Message) error {
		res, err := edgeset.Extract(m.Trace, cfg)
		if err != nil {
			return err
		}
		training = append(training, core.Sample{SA: res.SA, Set: res.Set})
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := core.Train(training, core.TrainConfig{Metric: core.Mahalanobis, SAMap: v.SAMap(), Margin: 40})
	if err != nil {
		log.Fatal(err)
	}

	// Build a live bus stream: mostly legitimate frames, but every
	// sixth frame the body controller (ECU 3) transmits under the
	// engine ECU's SA 0x00 with forged payloads.
	rng := rand.New(rand.NewSource(11))
	synth := analog.SynthConfig{ADC: v.ADC, BitRate: v.BitRate, LeadIdleBits: 4}
	var stream analog.Trace
	attacks := 0
	for i := 0; i < 30; i++ {
		ecu := v.ECUs[i%len(v.ECUs)]
		id := ecu.Messages[0].ID
		if i%6 == 5 {
			ecu = v.ECUs[3] // the compromised node
			id = canbus.J1939ID{Priority: 3, PGN: canbus.PGNTorqueSpeedControl, SA: canbus.SAEngine}
			attacks++
		}
		data := make([]byte, 8)
		rng.Read(data)
		frame, err := canbus.NewJ1939Frame(id, data)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := analog.SynthesizeFrame(ecu.Transceiver, frame, synth, ecu.Transceiver.NominalEnvironment(), rng)
		if err != nil {
			log.Fatal(err)
		}
		stream = append(stream, tr...)
	}
	idle := make(analog.Trace, 20*cfg.BitWidth)
	rec := v.ADC.VoltsToCode(0.015)
	for i := range idle {
		idle[i] = rec
	}
	stream = append(stream, idle...)

	// The digitizer delivers packed little-endian uint16 codes; the
	// segmenter turns them into a capture stream the session replays.
	var codes []byte
	for _, c := range stream {
		codes = binary.LittleEndian.AppendUint16(codes, uint16(c))
	}
	seg := trace.NewSegmenter(trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC}, bytes.NewReader(codes))
	src, err := engine.NewStreamSource("digitizer", io.NopCloser(seg))
	if err != nil {
		log.Fatal(err)
	}
	compromised := v.ECUs[3].SAs()[0]
	caught, attributed := 0, 0
	sum, err := engine.NewSession("", engine.WithSource(src), engine.WithModel(model)).Run(func(r engine.Result) error {
		det := r.Verdict.Voltage
		if !det.Anomaly {
			return nil
		}
		caught++
		origin := "unknown"
		if det.Predict >= 0 {
			if c, err := model.Cluster(det.Predict); err == nil {
				origin = fmt.Sprintf("cluster %d (SAs %v)", c.ID, c.SAs)
				if slices.Contains(c.SAs, compromised) {
					attributed++
				}
			}
		}
		fmt.Printf("ALARM at %.6f s: SA %#02x, reason %s, true origin %s\n",
			r.Record.TimeSec, uint8(r.Frame.SA()), det.Reason, origin)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprocessed %d frames, %d injected attacks, %d alarms\n", sum.Tally.Frames(), attacks, caught)
	if caught == attacks && attributed == attacks {
		fmt.Println("every hijacked frame was identified — and attributed to the compromised ECU")
	}
}
