package experiments

import (
	"bytes"

	"vprofile/internal/core"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// ReplayFixture builds the standard replay benchmark input: a clean
// Vehicle B capture of records frames (diagnostic traffic included)
// encoded as a VPTR byte stream, and a Mahalanobis model trained on
// 1500 frames whose margin is 1.5× the accuracy-optimal margin on 800
// validation frames, so the capture replays without alarms. Every row
// of cmd/replaybench's ablation table replays it.
func ReplayFixture(records int) ([]byte, *core.Model, *vehicle.Vehicle, error) {
	v := vehicle.NewVehicleB()
	train, err := CollectSamples(v, 1500, 7, nil, v.ExtractionConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	model, err := core.Train(CoreSamples(train), core.TrainConfig{
		Metric: core.Mahalanobis, SAMap: v.SAMap(),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	val, err := CollectSamples(v, 800, 8, nil, v.ExtractionConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	margin, _ := OptimizeMargin(FalsePositiveRecords(model, val), MaxAccuracy)
	model.Margin = margin * 1.5

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		return nil, nil, nil, err
	}
	err = v.Stream(vehicle.GenConfig{NumMessages: records, Seed: 99, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		return w.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex),
			TimeSec:  m.TimeSec,
			FrameID:  m.Frame.ID,
			Data:     m.Frame.Data,
			Trace:    m.Trace,
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, nil, nil, err
	}
	return buf.Bytes(), model, v, nil
}
