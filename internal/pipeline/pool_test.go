package pipeline_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

func TestPoolDefaults(t *testing.T) {
	p := pipeline.NewPool(0)
	if p.Workers() <= 0 {
		t.Fatalf("NewPool(0).Workers() = %d, want > 0", p.Workers())
	}
	p.Close()
	p.Close() // idempotent
	if p2 := pipeline.NewPool(3); p2.Workers() != 3 {
		t.Fatalf("NewPool(3).Workers() = %d", p2.Workers())
	} else {
		p2.Close()
	}
}

// TestSharedPoolReplays runs two concurrent replays of one capture on
// a single shared pool: both verdict streams must be bit-identical to
// the sequential reference — sharing workers across replays must not
// leak order or state between them.
func TestSharedPoolReplays(t *testing.T) {
	v := vehicle.NewVehicleB()
	model := buildModel(t, v)
	data := buildCapture(t, v)

	newReader := func() *trace.Reader {
		rd, err := trace.OpenReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	var ref []ids.CompositeResult
	_, err := pipeline.Sequential(newReader(), newMonitor(t, v, model), func(r pipeline.Result) error {
		ref = append(ref, r.Verdict)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pool := newPool(t, 4)
	const replays = 2
	results := make([][]ids.CompositeResult, replays)
	errs := make([]error, replays)
	var wg sync.WaitGroup
	for k := 0; k < replays; k++ {
		mon := newMonitor(t, v, model)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = replay(newReader(), mon, pipeline.Config{Pool: pool}, func(r pipeline.Result) error {
				if r.Index != len(results[k]) {
					return fmt.Errorf("replay %d: result %d out of order", k, r.Index)
				}
				results[k] = append(results[k], r.Verdict)
				return nil
			})
		}()
	}
	wg.Wait()
	for k := 0; k < replays; k++ {
		if errs[k] != nil {
			t.Fatalf("replay %d: %v", k, errs[k])
		}
		if len(results[k]) != len(ref) {
			t.Fatalf("replay %d: %d results, want %d", k, len(results[k]), len(ref))
		}
		for i := range ref {
			if d := diffResults(results[k][i], ref[i]); d != "" {
				t.Fatalf("replay %d record %d: %s", k, i, d)
			}
		}
	}
}
