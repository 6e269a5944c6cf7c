package engine_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
)

// readEventLog returns the outlet events of a JSONL event log, without
// the end-of-run stats records.
func readEventLog(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []obs.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind != obs.EventStats {
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionEmitsVerdictEvents pins the one verdict-event path: a
// lone session with no sink, quarantine on and an event log writes
// exactly the events an external Tally derives from the same results
// — voltage alarms, quarantine transitions and all — and hands the
// same events to a sink as Result.Events. The summary's tally is the
// tally those events came from.
func TestSessionEmitsVerdictEvents(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "attack.vptr"), buildCapture(t, 401, 600, 300))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ids.NewComposite(m, ids.CompositeConfig{
		Extraction: engine.ExtractionFor(rd.Header()), Quarantine: &ids.QuarantineConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTally := engine.NewTally()
	var want []obs.Event
	if _, err := pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		want = append(want, wantTally.Observe(r)...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range want {
		kinds[e.Kind]++
	}
	if kinds[obs.EventVoltage] == 0 || kinds[obs.EventQuarantine] == 0 || wantTally.Suppressed == 0 {
		t.Fatalf("test is vacuous: reference events %v, %d suppressed", kinds, wantTally.Suppressed)
	}
	wantJSON, _ := json.Marshal(want)

	logPath := filepath.Join(dir, "events.jsonl")
	sum, err := engine.NewSession(path, engine.WithModel(m), engine.WithWorkers(2),
		engine.WithQuarantine(true), engine.WithEventsPath(logPath)).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(readEventLog(t, logPath)); !bytes.Equal(got, wantJSON) {
		t.Fatalf("event log diverges from the tally's events:\n%s\nwant:\n%s", got, wantJSON)
	}
	if sum.Tally == nil || sum.Tally.Table() != wantTally.Table() {
		t.Fatalf("summary tally diverges from the reference:\n%v\nwant:\n%s", sum.Tally, wantTally.Table())
	}

	var delivered []obs.Event
	if _, err := engine.NewSession(path, engine.WithModel(m), engine.WithWorkers(2),
		engine.WithQuarantine(true)).Run(func(res engine.Result) error {
		delivered = append(delivered, res.Events...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(delivered); !bytes.Equal(got, wantJSON) {
		t.Fatalf("Result.Events diverge from the tally's events:\n%s\nwant:\n%s", got, wantJSON)
	}
}

// TestSinkEventsOutliveLaterFrames pins that Result.Events belongs to
// the sink: the session's tally reuses its event slice from frame to
// frame, so a sink that keeps each frame's Events — without copying —
// must still hold that frame's events after every later alarmed frame.
func TestSinkEventsOutliveLaterFrames(t *testing.T) {
	m := sharedModel(t)
	data := buildCapture(t, 403, 300, 200)
	var want [][]obs.Event
	ref := engine.NewTally()
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header())})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		if events := ref.Observe(r); len(events) > 0 {
			want = append(want, append([]obs.Event(nil), events...))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("test is vacuous: %d alarmed frames", len(want))
	}

	var kept [][]obs.Event
	if _, err := streamSession(t, data, engine.WithModel(m), engine.WithWorkers(2)).Run(func(res engine.Result) error {
		if len(res.Events) > 0 {
			kept = append(kept, res.Events)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, events := range kept {
		for i := range events {
			events[i].Bus = "" // the session tags its bus; the reference has none
		}
	}
	got, _ := json.Marshal(kept)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("kept Result.Events changed after later frames:\n%s\nwant:\n%s", got, wantJSON)
	}
}

// TestReadTallyMidRun reads a running session's tally from another
// goroutine, as the daemon's status poller does: under -race the
// reads must not conflict with the sequencer's writes, the frame
// count must never go backwards, and after Run the read matches the
// summary's tally.
func TestReadTallyMidRun(t *testing.T) {
	m := sharedModel(t)
	sess := streamSession(t, buildCapture(t, 402, 400, 200), engine.WithModel(m),
		engine.WithWorkers(2), engine.BatchBound(4), engine.WithQuarantine(true))
	frames := func() int {
		_, rows := sess.ReadTally()
		n := 0
		for _, r := range rows {
			n += r.Frames
		}
		return n
	}
	done := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		last, err := 0, error(nil)
		for {
			select {
			case <-done:
				polled <- err
				return
			default:
			}
			n := frames()
			if n < last && err == nil {
				err = fmt.Errorf("tally went back from %d to %d frames", last, n)
			}
			last = n
			_ = sess.Snapshot()
		}
	}()
	sum, err := sess.Run(nil)
	close(done)
	if perr := <-polled; perr != nil {
		t.Error(perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	counts, rows := sess.ReadTally()
	if counts != sum.Tally.TallyCounts || !reflect.DeepEqual(rows, sum.Tally.Rows()) || frames() != int(sum.Stats.RecordsOut) {
		t.Fatalf("tally after Run differs from the summary's: %+v vs %+v", counts, sum.Tally.TallyCounts)
	}
}
