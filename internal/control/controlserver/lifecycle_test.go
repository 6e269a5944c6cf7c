package controlserver_test

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vprofile/internal/control"
	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlserver"
	"vprofile/internal/pipeline"
)

// TestDaemonLifecycleNoLeaks drives a seeded attach → stream → detach
// → re-attach → policy reload → drain sequence over three buses that
// share the daemon fleet's worker pool. Every finished feed must
// conserve frames (RecordsIn == RecordsOut) and return every pooled
// record and batch buffer it took — after a clean end, a mid-stream
// detach and the drain alike — the drain must finish inside its
// timeout with no session still live, and the goroutine count must
// return to its pre-test baseline.
func TestDaemonLifecycleNoLeaks(t *testing.T) {
	dir, modelPath, _, capture := fixtureDir(t)
	if err := os.WriteFile(filepath.Join(dir, "model2.vpm"), mustRead(t, modelPath), 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261017))
	baseline := runtime.NumGoroutine()

	buses := []string{"a", "b", "c"}
	policyPath := filepath.Join(dir, "fleet.yaml")
	writePolicy := func(modelB, windowC string) {
		sock := func(bus string) string { return "unix://" + filepath.Join(dir, bus+".sock") }
		text := "defaults:\n  model: model.vpm\n  quarantine: true\nbuses:\n" +
			"  a:\n    listen: " + sock("a") + "\n" +
			"  b:\n    listen: " + sock("b") + "\n    model: " + modelB + "\n" +
			"  c:\n    listen: " + sock("c") + "\n    flight_window: " + windowC + "\n"
		if err := os.WriteFile(policyPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writePolicy("model.vpm", "16")
	policy, err := control.LoadPolicy(policyPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := controlserver.New(controlserver.Config{Policy: policy, BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// noBuffersOutstanding checks the recycler accounting of a bus's
	// most recently finished feed.
	noBuffersOutstanding := func(bus string, feedStats func() (pipeline.Stats, bool)) {
		t.Helper()
		stats, ok := feedStats()
		if !ok {
			t.Fatalf("bus %s: no finished feed", bus)
		}
		if stats.BuffersOutstanding != 0 {
			t.Fatalf("bus %s: %d pooled buffers outstanding after its feed ended", bus, stats.BuffersOutstanding)
		}
	}
	// feed streams the first n bytes of the capture into a bus and
	// returns the open connection: the feed stays live, blocked on its
	// next read, until the caller closes it or the daemon stops it.
	feed := func(bus string, n int) net.Conn {
		t.Helper()
		st, err := d.BusStatus(bus)
		if err != nil {
			t.Fatal(err)
		}
		_, addr, err := controlapi.ParseListen(st.Ingest)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(capture[:n]); err != nil {
			conn.Close()
			t.Fatal(err)
		}
		return conn
	}
	// streamAll feeds the whole capture into every bus, in a seeded
	// order, and checks each finished feed's frame accounting.
	streamAll := func(round int) {
		t.Helper()
		for _, i := range rng.Perm(len(buses)) {
			bus := buses[i]
			before, err := d.BusStatus(bus)
			if err != nil {
				t.Fatal(err)
			}
			feed(bus, len(capture)).Close()
			st := waitBusDone(t, d, bus, before.SessionsDone+1)
			if st.SessionsAborted != 0 {
				t.Fatalf("round %d bus %s: feed aborted: %s", round, bus, st.LastError)
			}
			stats, ok := controlserver.LastFeedStats(d, bus)
			if !ok || stats.RecordsIn != stats.RecordsOut || stats.RecordsOut == 0 {
				t.Fatalf("round %d bus %s: feed lost frames: in %d out %d", round, bus, stats.RecordsIn, stats.RecordsOut)
			}
			noBuffersOutstanding(bus, controlserver.FeedStatsReader(d, bus))
		}
	}

	streamAll(1)

	// Detach a seeded bus mid-stream, then bring it back with its
	// policy spec.
	victim := buses[rng.Intn(len(buses))]
	victimConn := feed(victim, len(capture)/4+rng.Intn(len(capture)/2))
	defer victimConn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := d.BusStatus(victim)
		if err != nil {
			t.Fatal(err)
		}
		if st.Live && st.Tally != nil && st.Tally.Frames > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bus %s never went live: %+v", victim, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victimStats := controlserver.FeedStatsReader(d, victim)
	st, err := d.Detach(victim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Live || st.SessionsDone != st.Sessions {
		t.Fatalf("detach left bus %s's session running: %+v", victim, st)
	}
	noBuffersOutstanding(victim, victimStats)
	if _, err := d.Attach(*policy.Bus(victim)); err != nil {
		t.Fatal(err)
	}
	streamAll(2)

	// Reload: b hot-swaps its model, c restarts with a new flight window,
	// a is untouched.
	writePolicy("model2.vpm", "8")
	resp, err := d.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(resp.Swapped, ",") != "b" || strings.Join(resp.Restarted, ",") != "c" {
		t.Fatalf("reload diff: swapped %v restarted %v", resp.Swapped, resp.Restarted)
	}
	streamAll(3)

	// Leave one feed live across the drain: it must be stopped within
	// the timeout, not outlive it.
	live := buses[rng.Intn(len(buses))]
	liveConn := feed(live, len(capture)/2)
	defer liveConn.Close()
	const drainTimeout = 5 * time.Second
	start := time.Now()
	d.Drain(drainTimeout)
	if took := time.Since(start); took > drainTimeout {
		t.Fatalf("drain took %s, past its %s timeout", took, drainTimeout)
	}
	for _, bus := range buses {
		st, err := d.BusStatus(bus)
		if err != nil {
			t.Fatal(err)
		}
		if st.Live || st.SessionsDone != st.Sessions {
			t.Fatalf("bus %s outlived the drain: %+v", bus, st)
		}
		noBuffersOutstanding(bus, controlserver.FeedStatsReader(d, bus))
	}

	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d after drain, %d before the daemon started\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
