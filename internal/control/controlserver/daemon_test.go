package controlserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"vprofile/internal/attack"
	"vprofile/internal/control"
	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlclient"
	"vprofile/internal/control/controlserver"
	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/obs"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

var (
	modelOnce sync.Once
	testModel *core.Model
)

// sharedModel trains one Mahalanobis model for the whole package,
// mirroring the engine test fixture: training dominates test time and
// determinism is all these tests need.
func sharedModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		v := vehicle.NewVehicleB()
		train, err := experiments.CollectSamples(v, 1200, 7, nil, v.ExtractionConfig())
		if err != nil {
			panic(err)
		}
		m, err := core.Train(experiments.CoreSamples(train), core.TrainConfig{
			Metric: core.Mahalanobis, SAMap: v.SAMap(),
		})
		if err != nil {
			panic(err)
		}
		m.Margin = 2
		testModel = m
	})
	return testModel
}

// buildCapture renders clean traffic followed by a foreign-device
// attack segment — healthy verdicts, voltage alarms and timing all
// exercised.
func buildCapture(t testing.TB, seed int64, cleanN, attackN int) []byte {
	t.Helper()
	return buildAttackCapture(t, seed, cleanN, attack.Scenario{Kind: attack.Foreign, VictimECU: 1, NumMessages: attackN, Seed: seed + 1})
}

// buildAttackCapture renders clean traffic followed by the attack
// segment sc describes.
func buildAttackCapture(t testing.TB, seed int64, cleanN int, sc attack.Scenario) []byte {
	t.Helper()
	v := vehicle.NewVehicleB()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Vehicle: v.Name, BitRate: v.BitRate, ADC: v.ADC})
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	write := func(m vehicle.Message, offset float64) {
		last = offset + m.TimeSec
		err := w.Write(&trace.Record{
			ECUIndex: int32(m.ECUIndex), TimeSec: last,
			FrameID: m.Frame.ID, Data: m.Frame.Data, Trace: m.Trace,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err = v.Stream(vehicle.GenConfig{NumMessages: cleanN, Seed: seed, DiagnosticTraffic: true}, func(m vehicle.Message) error {
		write(m, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := attack.Run(v, sc)
	if err != nil {
		t.Fatal(err)
	}
	offset := last + 0.1
	for _, m := range msgs {
		write(m.Message, offset)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixtureDir writes the shared model and a capture into a temp dir.
func fixtureDir(t *testing.T) (dir, modelPath, capturePath string, capture []byte) {
	t.Helper()
	dir = t.TempDir()
	modelPath = filepath.Join(dir, "model.vpm")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharedModel(t).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	capture = buildCapture(t, 201, 700, 250)
	capturePath = filepath.Join(dir, "test.vptr")
	if err := os.WriteFile(capturePath, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, modelPath, capturePath, capture
}

// batchTally replays the capture through a plain batch session with
// the same settings the daemon buses use and returns the reference
// tally.
func batchTally(t *testing.T, capturePath, modelPath string) *engine.Tally {
	t.Helper()
	tally := engine.NewTally()
	s := engine.NewSession(capturePath,
		engine.WithModelPath(modelPath),
		engine.WithQuarantine(true),
		engine.WithWorkers(2),
	)
	if _, err := s.Run(func(res engine.Result) error {
		tally.Observe(res.Result)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tally
}

func waitBusDone(t *testing.T, d *controlserver.Daemon, bus string, n int) controlapi.BusStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := d.BusStatus(bus)
		if err != nil {
			t.Fatal(err)
		}
		if st.SessionsDone >= n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("bus %s never finished: %+v", bus, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// checkTallyMatches asserts the daemon's snapshot equals the batch
// reference, counter for counter and row for row.
func checkTallyMatches(t *testing.T, got *controlapi.TallySnapshot, want *engine.Tally) {
	t.Helper()
	if got == nil {
		t.Fatal("daemon reported no tally")
	}
	if got.Frames != want.Frames() {
		t.Errorf("frames: daemon %d, batch %d", got.Frames, want.Frames())
	}
	if got.VoltAlarms != want.VoltAlarms || got.PreprocFailed != want.PreprocFailed ||
		got.PeriodAlarms != want.PeriodAlarms || got.TPErrors != want.TPErrors ||
		got.Suppressed != want.Suppressed {
		t.Errorf("counters differ:\ndaemon %+v\nbatch volt=%d preproc=%d period=%d tp=%d supp=%d",
			got, want.VoltAlarms, want.PreprocFailed, want.PeriodAlarms, want.TPErrors, want.Suppressed)
	}
	if !reflect.DeepEqual(got.SAs, want.Rows()) {
		t.Errorf("per-SA tables differ:\ndaemon %+v\nbatch  %+v", got.SAs, want.Rows())
	}
}

// TestStreamMatchesBatch is the determinism cornerstone: a capture
// streamed into the daemon over a socket must tally bit-identically
// to the same capture replayed in batch mode.
func TestStreamMatchesBatch(t *testing.T) {
	dir, modelPath, capturePath, _ := fixtureDir(t)
	want := batchTally(t, capturePath, modelPath)

	cases := []struct {
		name   string
		listen string
	}{
		{"tcp", "tcp://127.0.0.1:0"},
		{"unix", "unix://" + filepath.Join(dir, "ingest.sock")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := controlserver.New(controlserver.Config{BaseDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Drain(5 * time.Second)
			st, err := d.Attach(controlapi.BusSpec{
				Bus: "b1", Listen: tc.listen, Model: "model.vpm",
				Quarantine: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := controlclient.StreamCapture(st.Ingest, capturePath, controlclient.StreamConfig{}); err != nil {
				t.Fatal(err)
			}
			st = waitBusDone(t, d, "b1", 1)
			if st.SessionsAborted != 0 {
				t.Fatalf("streamed session aborted: %s", st.LastError)
			}
			checkTallyMatches(t, st.Tally, want)
			if st.Tally.Corruptions != 0 {
				t.Errorf("clean socket stream reported %d corruptions", st.Tally.Corruptions)
			}
			// The attack segment must have produced alarms on the daemon's
			// event stream, tagged with the bus name.
			ev := d.Events(0, 1000, 0)
			if len(ev.Events) == 0 {
				t.Fatal("no events published for an attack capture")
			}
			for _, e := range ev.Events {
				if e.Bus != "b1" {
					t.Fatalf("event without bus label: %+v", e)
				}
			}
			if code := d.Drain(5 * time.Second); code != 0 {
				t.Fatalf("clean drain exited %d", code)
			}
		})
	}
}

// maxBusStatusAllocs bounds the heap allocations of one BusStatus call
// on a bus whose feed finished: the ingest address, the tally snapshot
// and the two slices of its per-SA rows. A poller calls it every few
// hundred microseconds, so each extra allocation shows up in the
// daemon's per-frame allocation rate.
const maxBusStatusAllocs = 4

// TestBusStatusAllocs gates that BusStatus reads the finished feed's
// tally in place instead of cloning it.
func TestBusStatusAllocs(t *testing.T) {
	dir, _, capturePath, _ := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)
	st, err := d.Attach(controlapi.BusSpec{
		Bus: "b1", Listen: "tcp://127.0.0.1:0", Model: "model.vpm", Quarantine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controlclient.StreamCapture(st.Ingest, capturePath, controlclient.StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	if st = waitBusDone(t, d, "b1", 1); st.Tally == nil || st.Tally.Frames == 0 || len(st.Tally.SAs) == 0 {
		t.Fatalf("finished feed reported no tally: %+v", st)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := d.BusStatus("b1"); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxBusStatusAllocs {
		t.Fatalf("BusStatus allocates %.1f times per call, want <= %d", got, maxBusStatusAllocs)
	}
	t.Logf("%.1f allocs per BusStatus call", got)
}

// TestUDPLossTolerated injects datagram drops and asserts the gap
// accounting shows up, the recovery path resyncs, and the pipeline
// still completes instead of wedging.
func TestUDPLossTolerated(t *testing.T) {
	dir, _, capturePath, capture := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)
	st, err := d.Attach(controlapi.BusSpec{
		Bus: "udp1", Listen: "udp://127.0.0.1:0", Model: "model.vpm",
		Recover: true, Quarantine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := controlapi.ParseListen(st.Ingest)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := os.Open(capturePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Pace the feed: an unthrottled loopback blast overflows the UDP
	// receive buffer and every loss would be the kernel's, not ours.
	dropped := map[uint32]bool{4: true, 9: true}
	if _, err := trace.StreamDatagrams(&pacedWriter{w: conn}, f, trace.DatagramConfig{
		ChunkSize: 1024,
		Drop:      func(seq uint32) bool { return dropped[seq] },
	}); err != nil {
		t.Fatal(err)
	}
	// A datagram feed has no EOF: wait until the frame count stops
	// moving, then detach to drain the session.
	total := len(capture)
	deadline := time.Now().Add(30 * time.Second)
	lastFrames, stable := -1, 0
	for stable < 20 {
		st, err := d.BusStatus("udp1")
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		if st.Tally != nil {
			frames = st.Tally.Frames
		}
		if frames > 0 && frames == lastFrames {
			stable++
		} else {
			stable = 0
		}
		lastFrames = frames
		if time.Now().After(deadline) {
			t.Fatalf("udp ingestion never settled (frames %d of ~%d bytes)", frames, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err = d.Detach("udp1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsDone != 1 || st.SessionsAborted != 0 {
		t.Fatalf("udp session did not drain cleanly: %+v", st)
	}
	if st.Tally == nil || st.Tally.Gaps == nil {
		t.Fatalf("no gap accounting on a udp bus: %+v", st.Tally)
	}
	if st.Tally.Gaps.LostChunks < int64(len(dropped)) {
		t.Errorf("LostChunks = %d, want >= %d", st.Tally.Gaps.LostChunks, len(dropped))
	}
	if st.Tally.Corruptions == 0 {
		t.Error("dropped chunks produced no corruption-recovery reports")
	}
	// Two 1 KiB holes destroy a handful of records at most; the rest
	// of the stream must have made it through.
	if st.Tally.Frames < 900 {
		t.Errorf("only %d frames survived the lossy stream", st.Tally.Frames)
	}
}

// TestHotReloadKeepsUnchangedBus swaps one bus's model via a policy
// reload while another bus is mid-stream, and asserts the streaming
// bus neither restarts nor drops a frame.
func TestHotReloadKeepsUnchangedBus(t *testing.T) {
	dir, modelPath, capturePath, capture := fixtureDir(t)
	// A second model file for the swap.
	if err := os.WriteFile(filepath.Join(dir, "model2.vpm"), mustRead(t, modelPath), 0o644); err != nil {
		t.Fatal(err)
	}
	sockB := filepath.Join(dir, "b.sock")
	policyPath := filepath.Join(dir, "fleet.yaml")
	writePolicy := func(modelB string) {
		text := "defaults:\n  quarantine: true\nbuses:\n" +
			"  a:\n    listen: tcp://127.0.0.1:0\n    model: model.vpm\n" +
			"  b:\n    listen: unix://" + sockB + "\n    model: " + modelB + "\n"
		if err := os.WriteFile(policyPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePolicy("model.vpm")
	policy, err := control.LoadPolicy(policyPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := controlserver.New(controlserver.Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)

	stA, err := d.BusStatus("a")
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := controlapi.ParseListen(stA.Ingest)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// First half of the capture in; bus a is now mid-stream.
	half := len(capture) / 2
	if _, err := conn.Write(capture[:half]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.BusStatus("a")
		if err != nil {
			t.Fatal(err)
		}
		if st.Tally != nil && st.Tally.Frames > 0 && st.Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bus a never started streaming: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reload with bus b's model changed: b hot-swaps, a is untouched.
	writePolicy("model2.vpm")
	resp, err := d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swapped) != 1 || resp.Swapped[0] != "b" {
		t.Fatalf("Swapped = %v, want [b]", resp.Swapped)
	}
	if len(resp.Unchanged) != 1 || resp.Unchanged[0] != "a" {
		t.Fatalf("Unchanged = %v, want [a]", resp.Unchanged)
	}
	stB, err := d.BusStatus("b")
	if err != nil {
		t.Fatal(err)
	}
	if stB.ModelVersion != 2 || stB.Model != "model2.vpm" {
		t.Fatalf("bus b after swap: version %d model %s", stB.ModelVersion, stB.Model)
	}
	stA, err = d.BusStatus("a")
	if err != nil {
		t.Fatal(err)
	}
	if !stA.Live || stA.Sessions != 1 {
		t.Fatalf("reload disturbed the streaming bus: %+v", stA)
	}

	// Finish the stream; the tally must equal an uninterrupted batch
	// replay — the reload dropped nothing.
	if _, err := conn.Write(capture[half:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	st := waitBusDone(t, d, "a", 1)
	if st.Sessions != 1 {
		t.Fatalf("bus a restarted during reload: %d sessions", st.Sessions)
	}
	if st.SessionsAborted != 0 {
		t.Fatalf("bus a aborted: %s", st.LastError)
	}
	checkTallyMatches(t, st.Tally, batchTally(t, capturePath, modelPath))
}

// TestDrainAbortExitCode: a feed cut mid-record (no recovery) aborts
// its session, and the daemon's drain reports it via exit code 3.
func TestDrainAbortExitCode(t *testing.T) {
	dir, _, _, capture := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Attach(controlapi.BusSpec{
		Bus: "frag", Listen: "tcp://127.0.0.1:0", Model: "model.vpm",
	})
	if err != nil {
		t.Fatal(err)
	}
	_, addr, err := controlapi.ParseListen(st.Ingest)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Everything but the last few bytes: EOF lands mid-record.
	if _, err := conn.Write(capture[:len(capture)-7]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	st = waitBusDone(t, d, "frag", 1)
	if st.SessionsAborted != 1 {
		t.Fatalf("truncated feed did not abort: %+v", st)
	}
	if code := d.Drain(5 * time.Second); code != 3 {
		t.Fatalf("drain after an aborted session exited %d, want 3", code)
	}
}

func TestAttachValidation(t *testing.T) {
	dir, _, _, _ := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(2 * time.Second)
	if _, err := d.Attach(controlapi.BusSpec{Bus: "x", Listen: "udp://127.0.0.1:0", Model: "model.vpm"}); err == nil {
		t.Error("udp attach without recover accepted")
	}
	if _, err := d.Attach(controlapi.BusSpec{Bus: "x", Listen: "tcp://127.0.0.1:0", Model: "missing.vpm"}); err == nil {
		t.Error("attach with a missing model accepted")
	}
	if _, err := d.Attach(controlapi.BusSpec{Bus: "x", Listen: "tcp://127.0.0.1:0", Model: "model.vpm"}); err != nil {
		t.Fatalf("good attach rejected: %v", err)
	}
	if _, err := d.Attach(controlapi.BusSpec{Bus: "x", Listen: "tcp://127.0.0.1:0", Model: "model.vpm"}); err == nil {
		t.Error("duplicate attach accepted")
	}
}

// pacedWriter sleeps briefly every few writes so a datagram burst
// stays within the receiver's socket buffer.
type pacedWriter struct {
	w io.Writer
	n int
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	p.n++
	if p.n%16 == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	return p.w.Write(b)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonFlightEvents: a bus's flight recorder reports through the
// fleet's event outlet like every other layer, so a bus with flight_dir
// streamed a hijack capture surfaces flight events both on /v1/events
// and in the alarms.events mirror.
func TestDaemonFlightEvents(t *testing.T) {
	dir, _, _, _ := fixtureDir(t)
	capturePath := filepath.Join(dir, "hijack.vptr")
	hijack := buildAttackCapture(t, 211, 700, attack.Scenario{
		Kind: attack.Hijack, AttackerECU: 2, VictimECU: 1, NumMessages: 250, Seed: 212,
	})
	if err := os.WriteFile(capturePath, hijack, 0o644); err != nil {
		t.Fatal(err)
	}
	mirrorPath := filepath.Join(dir, "alarms.jsonl")
	policyPath := filepath.Join(dir, "fleet.yaml")
	text := "alarms:\n  events: " + mirrorPath + "\nbuses:\n" +
		"  hj:\n    listen: tcp://127.0.0.1:0\n    model: model.vpm\n    flight_dir: forensics\n"
	if err := os.WriteFile(policyPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	policy, err := control.LoadPolicy(policyPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := controlserver.New(controlserver.Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)
	srv, err := controlserver.Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st, err := d.BusStatus("hj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := controlclient.StreamCapture(st.Ingest, capturePath, controlclient.StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	if st := waitBusDone(t, d, "hj", 1); st.SessionsAborted != 0 {
		t.Fatalf("hijack feed aborted: %s", st.LastError)
	}

	c := controlclient.New(srv.Addr())
	apiFlight := 0
	for cursor := uint64(0); ; {
		page, err := c.Events(context.Background(), cursor, 1000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Events) == 0 {
			break
		}
		for _, rec := range page.Events {
			if rec.Event.Kind == obs.EventFlight && rec.Event.Bus == "hj" {
				apiFlight++
			}
		}
		cursor = page.Next
	}
	if apiFlight == 0 {
		t.Errorf("no flight events on %s", controlapi.PathEvents)
	}

	// The drain closes the mirror; every line is then on disk.
	if code := d.Drain(5 * time.Second); code != 0 {
		t.Fatalf("drain exited %d", code)
	}
	mirrorFlight := 0
	for _, line := range bytes.Split(mustRead(t, mirrorPath), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("mirror line %q: %v", line, err)
		}
		if e.Kind == obs.EventFlight && e.Bus == "hj" {
			mirrorFlight++
		}
	}
	if mirrorFlight != apiFlight {
		t.Errorf("alarms.events mirror holds %d flight events, %s served %d", mirrorFlight, controlapi.PathEvents, apiFlight)
	}
}
