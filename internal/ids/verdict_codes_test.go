package ids_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"vprofile/internal/analog"
	"vprofile/internal/attack"
	"vprofile/internal/canbus"
	"vprofile/internal/ids"
	"vprofile/internal/obs/tracing"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

// TestVoltageVerdictCodesMatchesFloats pins the codes entry point the
// replay pipeline scores through: on every record of the seed-1 hijack
// and flood captures, plus a capture of truncated traces that fail
// extraction, the verdict scored from the record's packed codes
// (RawRecord.Samples) equals VoltageVerdict on the decoded float64
// trace — the Detection and the error — and, traced, its edge set and
// per-cluster distances equal VoltageVerdictTraced's bit for bit.
func TestVoltageVerdictCodesMatchesFloats(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	c, err := ids.NewComposite(model, ids.CompositeConfig{Extraction: v.ExtractionConfig()})
	if err != nil {
		t.Fatal(err)
	}
	captures := map[string][]byte{"truncated": truncatedCapture(t, v)}
	for _, name := range []string{"hijack", "flood"} {
		spec, err := attack.ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := attack.WriteCorpus(&buf, v, spec, 800, 1); err != nil {
			t.Fatal(err)
		}
		captures[name] = buf.Bytes()
	}
	for name, data := range captures {
		t.Run(name, func(t *testing.T) {
			rd, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var raw trace.RawRecord
			var rec trace.Record
			records, alarms, failures := 0, 0, 0
			for i := 0; ; i++ {
				if err := rd.NextRawInto(&raw); errors.Is(err, io.EOF) {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				raw.DecodeInto(&rec)
				frame := &canbus.ExtendedFrame{ID: rec.FrameID, Data: rec.Data}
				want, wantErr := c.VoltageVerdict(frame, rec.Trace)
				got, _, gotErr := c.VoltageVerdictCodes(frame, raw.Samples(), nil)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("record %d: codes verdict %+v (err %v), floats %+v (err %v)", i, got, gotErr, want, wantErr)
				}

				ftF := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
				_, fxF, _ := c.VoltageVerdictTraced(frame, rec.Trace, ftF)
				ftC := tracing.NewFrameTrace(tracing.TraceID(i) + 1)
				_, fxC, _ := c.VoltageVerdictCodes(frame, raw.Samples(), ftC)
				if !sameBits(fxC.EdgeSet, fxF.EdgeSet) || !reflect.DeepEqual(fxC.Explain, fxF.Explain) {
					t.Fatalf("record %d: traced codes forensics %+v, floats %+v", i, fxC, fxF)
				}

				records++
				if wantErr != nil {
					failures++
				} else if want.Anomaly {
					alarms++
				}
			}
			t.Logf("%d records: %d voltage alarms, %d extraction failures", records, alarms, failures)
			if name == "truncated" && failures == 0 {
				t.Fatal("no extraction failures; the error path was never compared")
			}
			if name != "truncated" && alarms == 0 {
				t.Fatal("no voltage alarms; the anomaly path was never compared")
			}
		})
	}
}

// truncatedCapture writes clean vehicle-B frames cut short at several
// lengths, odd ones included, so extraction fails at every stage of
// Algorithm 1: no SOF, mid-arbitration and mid-edge-set.
func truncatedCapture(t *testing.T, v *vehicle.Vehicle) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	err = v.Stream(vehicle.GenConfig{NumMessages: 8, Seed: 1}, func(m vehicle.Message) error {
		for _, keep := range []int{0, 1, 77, 400, 1201, 1500, len(m.Trace)} {
			keep = min(keep, len(m.Trace))
			rec := &trace.Record{FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: analog.Trace(m.Trace[:keep])}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
