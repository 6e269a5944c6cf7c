package main

import (
	"runtime"
	"testing"
)

// TestAblationTable runs the whole table on a small capture: every
// layer lands in the layers map, every layered row's base row exists,
// and every row replayed every record on every bus.
func TestAblationTable(t *testing.T) {
	const records = 500
	procs := max(runtime.NumCPU(), 2)
	rep, err := measure(records, 1, procs)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Run{}
	for _, r := range rep.Runs {
		rows[r.Name] = r
	}
	for _, layer := range []string{"metrics", "flight", "faults", "drift", "socket", "fleet", "incidents"} {
		if _, ok := rep.Layers[layer]; !ok {
			t.Errorf("layers has no %q entry: %v", layer, rep.Layers)
		}
	}
	for _, r := range rep.Runs {
		if want := int64(records * r.Buses); r.Frames != want {
			t.Errorf("%s replayed %d frames, want %d", r.Name, r.Frames, want)
		}
		if r.Layer == "" {
			if r.Base != "" || r.OverheadPct != nil {
				t.Errorf("base row %s has a base %q or an overhead", r.Name, r.Base)
			}
			continue
		}
		if _, ok := rows[r.Base]; !ok {
			t.Errorf("%s (layer %s) measures against missing base row %q", r.Name, r.Layer, r.Base)
		}
		if r.OverheadPct == nil {
			t.Errorf("layered row %s has no overhead_pct", r.Name)
		}
	}
}
