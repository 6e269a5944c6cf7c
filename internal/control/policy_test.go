package control

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vprofile/internal/control/controlapi"
)

// policyDir builds a directory containing a stand-in model file so
// model-existence validation has something to find.
func policyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "model.vpm"), []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func parseIn(t *testing.T, dir, text string) (*Policy, error) {
	t.Helper()
	return ParsePolicy(filepath.Join(dir, "fleet.yaml"), []byte(text))
}

func TestParsePolicyGood(t *testing.T) {
	dir := policyDir(t)
	p, err := parseIn(t, dir, `
# fleet policy
control: 127.0.0.1:9620
alarms:
  events: alarms.jsonl
  buffer: 128
defaults:
  model: model.vpm
  quarantine: true
  flight_window: 2
buses:
  front:
    listen: tcp://127.0.0.1:9700
  cabin:
    listen: udp://127.0.0.1:9701
    recover: true
    flight_window: 4
    quarantine:
      suspect_after: 2
      degrade_after: 6
      recover_after: 32
  trailer:
    listen: unix:///tmp/trailer.sock
    model: model.vpm
    quarantine: false
    stall_timeout: 30s
    flight_dir: forensics
    flight_window: 16
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Control != "127.0.0.1:9620" {
		t.Errorf("control = %q", p.Control)
	}
	if p.Alarms.Events != "alarms.jsonl" || p.Alarms.Buffer != 128 {
		t.Errorf("alarms = %+v", p.Alarms)
	}
	if len(p.Buses) != 3 {
		t.Fatalf("parsed %d buses, want 3", len(p.Buses))
	}
	front := p.Bus("front")
	if front == nil {
		t.Fatal("bus front missing")
	}
	// Defaults merged: model, quarantine and flight window flow in;
	// listen is the bus's own.
	if front.Model != "model.vpm" || !front.Quarantine || front.FlightWindow != 2 {
		t.Errorf("defaults did not merge into front: %+v", front)
	}
	if front.Listen != "tcp://127.0.0.1:9700" {
		t.Errorf("front.listen = %q", front.Listen)
	}
	cabin := p.Bus("cabin")
	// Per-bus override wins over the default.
	if cabin.FlightWindow != 4 {
		t.Errorf("cabin.flight_window = %d, want 4 (override)", cabin.FlightWindow)
	}
	if !cabin.Recover {
		t.Error("cabin.recover not set")
	}
	if cabin.QuarantineSuspectAfter != 2 || cabin.QuarantineDegradeAfter != 6 || cabin.QuarantineRecoverAfter != 32 {
		t.Errorf("cabin quarantine tuning = %+v", cabin)
	}
	if !cabin.Quarantine {
		t.Error("a quarantine tuning map must imply quarantine: true")
	}
	trailer := p.Bus("trailer")
	if trailer.Quarantine {
		t.Error("trailer.quarantine override to false did not take")
	}
	if trailer.StallTimeout != "30s" || trailer.FlightDir != "forensics" || trailer.FlightWindow != 16 {
		t.Errorf("trailer settings = %+v", trailer)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	dir := policyDir(t)
	cases := []struct {
		name string
		text string
		want []string // substrings that must all appear in the error
	}{
		{
			name: "missing model file",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: nope.vpm\n",
			want: []string{"buses.a.model", "nope.vpm"},
		},
		{
			name: "unknown top-level key",
			text: "busses:\n  a:\n    listen: tcp://127.0.0.1:1\n",
			want: []string{"fleet.yaml:1", "busses", "unknown key"},
		},
		{
			name: "unknown bus key",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    quarantene: true\n",
			want: []string{"fleet.yaml:5", "buses.a.quarantene", "unknown key"},
		},
		{
			name: "missing listen",
			text: "buses:\n  a:\n    model: model.vpm\n",
			want: []string{"buses.a.listen", "required"},
		},
		{
			name: "missing model",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n",
			want: []string{"buses.a.model", "required"},
		},
		{
			name: "no buses",
			text: "control: 127.0.0.1:9620\n",
			want: []string{"buses", "at least one bus"},
		},
		{
			name: "bad listen scheme",
			text: "buses:\n  a:\n    listen: ftp://127.0.0.1:1\n    model: model.vpm\n",
			want: []string{"buses.a.listen", "ftp"},
		},
		{
			name: "udp without recover",
			text: "buses:\n  a:\n    listen: udp://127.0.0.1:1\n    model: model.vpm\n",
			want: []string{"buses.a.recover", "udp listeners require recover: true"},
		},
		{
			name: "quarantine zero",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    quarantine:\n      suspect_after: 0\n",
			want: []string{"fleet.yaml:6", "buses.a.quarantine.suspect_after", "out of range"},
		},
		{
			name: "quarantine huge",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    quarantine:\n      recover_after: 999999999\n",
			want: []string{"buses.a.quarantine.recover_after", "out of range"},
		},
		{
			name: "degrade not after suspect",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    quarantine:\n      suspect_after: 6\n      degrade_after: 3\n",
			want: []string{"buses.a.quarantine.degrade_after", "must be > suspect_after (6)"},
		},
		{
			name: "removed batch key",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    batch: 64\n",
			want: []string{"buses.a.batch", "removed: a feed ships what has arrived"},
		},
		{
			name: "removed workers key",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    workers: 4\n",
			want: []string{"buses.a.workers", "removed: buses share the daemon's worker pool"},
		},
		{
			name: "bad stall timeout",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    stall_timeout: whenever\n",
			want: []string{"buses.a.stall_timeout"},
		},
		{
			name: "bad bus name",
			text: "buses:\n  a/b:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n",
			want: []string{"buses.a/b", "may only contain"},
		},
		{
			name: "duplicate listen",
			text: "defaults:\n  model: model.vpm\nbuses:\n  a:\n    listen: tcp://127.0.0.1:7\n  b:\n    listen: tcp://127.0.0.1:7\n",
			want: []string{"buses.b.listen", "duplicate listen address"},
		},
		{
			name: "non-bool quarantine",
			text: "buses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n    quarantine: yes\n",
			want: []string{"buses.a.quarantine", "expected true or false"},
		},
		{
			name: "yaml list rejected",
			text: "buses:\n  - a\n",
			want: []string{"YAML lists are not supported"},
		},
		{
			name: "yaml tab rejected",
			text: "buses:\n\ta:\n",
			want: []string{"tab"},
		},
		{
			name: "duplicate key",
			text: "control: a\ncontrol: b\nbuses:\n  a:\n    listen: tcp://127.0.0.1:1\n    model: model.vpm\n",
			want: []string{"fleet.yaml:2", "duplicate key"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseIn(t, dir, tc.text)
			if err == nil {
				t.Fatalf("policy accepted:\n%s", tc.text)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q\nmissing substring %q", err, want)
				}
			}
		})
	}
}

// TestParsePolicyReportsAllErrors: validation collects every problem
// in one pass instead of stopping at the first.
func TestParsePolicyReportsAllErrors(t *testing.T) {
	dir := policyDir(t)
	_, err := parseIn(t, dir, `
buses:
  a:
    model: model.vpm
    flight_window: -1
  b:
    listen: tcp://127.0.0.1:1
`)
	if err == nil {
		t.Fatal("policy accepted")
	}
	for _, want := range []string{"buses.a.listen", "buses.a.flight_window", "buses.b.model"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("combined error missing %q:\n%v", want, err)
		}
	}
}

func TestValidateSpecAttachPath(t *testing.T) {
	dir := policyDir(t)
	good := controlapi.BusSpec{Bus: "front", Listen: "tcp://127.0.0.1:0", Model: filepath.Join(dir, "model.vpm")}
	if err := ValidateSpec(&good, ""); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := controlapi.BusSpec{Bus: "front door", Listen: "udp://127.0.0.1:0", Model: "gone.vpm"}
	err := ValidateSpec(&bad, dir)
	if err == nil {
		t.Fatal("bad spec accepted")
	}
	for _, want := range []string{"may only contain", "recover", "gone.vpm"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("attach error missing %q: %v", want, err)
		}
	}
}

func TestDiffPolicies(t *testing.T) {
	spec := func(bus, listen, model string, window int) controlapi.BusSpec {
		return controlapi.BusSpec{Bus: bus, Listen: listen, Model: model, FlightWindow: window}
	}
	old := &Policy{Buses: []controlapi.BusSpec{
		spec("same", "tcp://h:1", "m.vpm", 2),
		spec("swap", "tcp://h:2", "m.vpm", 2),
		spec("restart", "tcp://h:3", "m.vpm", 2),
		spec("gone", "tcp://h:4", "m.vpm", 2),
	}}
	new := &Policy{Buses: []controlapi.BusSpec{
		spec("same", "tcp://h:1", "m.vpm", 2),
		spec("swap", "tcp://h:2", "m2.vpm", 2),   // model only → hot swap
		spec("restart", "tcp://h:3", "m.vpm", 8), // flight window changed → restart
		spec("fresh", "tcp://h:5", "m.vpm", 2),
	}}
	d := DiffPolicies(old, new)
	check := func(name string, got []string, want ...string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("Unchanged", d.Unchanged, "same")
	check("Swapped", d.Swapped, "swap")
	check("Restarted", d.Restarted, "restart")
	check("Added", d.Added, "fresh")
	check("Removed", d.Removed, "gone")

	// First load: everything is new.
	first := DiffPolicies(nil, new)
	if len(first.Added) != len(new.Buses) {
		t.Fatalf("nil old: Added = %v", first.Added)
	}
}
