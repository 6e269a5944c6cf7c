package tracing

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vprofile/internal/obs"
	"vprofile/internal/trace"
)

// testHeader is a minimal capture header for bundle sidecars.
func testHeader() trace.Header {
	h := trace.Header{Vehicle: "test", BitRate: 250e3}
	h.ADC.SampleRate = 10e6
	h.ADC.Bits = 12
	h.ADC.MinVolts = -1
	h.ADC.MaxVolts = 4
	return h
}

// dec builds a decision record for frame idx; alarm marks it as a
// voltage anomaly. Distances and samples are index-derived so any
// cross-frame mixup is visible.
func dec(idx int, alarm bool) *Decision {
	d := &Decision{
		Trace:    TraceID(idx + 1),
		Index:    idx,
		TimeSec:  float64(idx) * 0.01,
		FrameID:  0x18FEF121,
		SA:       0x21,
		Data:     HexBytes{1, 2, 3, 4, 5, 6, 7, 8},
		ECUIndex: 2,
		Expected: 1, Predicted: 1,
		MinDist:   float64(idx) + 0.125,
		Threshold: 50.5,
		Margin:    3.25,
		Distances: []ClusterDistance{{ID: 1, Dist: float64(idx) + 0.125}, {ID: 2, Dist: 99}},
		EdgeSet:   []float64{float64(idx), float64(idx) + 0.5},
		Samples:   []float64{float64(idx), float64(idx + 1), 42},
	}
	if alarm {
		d.Alarms = []string{AlarmVoltage}
		d.Predicted = 2
	}
	return d
}

// bundleIndices flattens a bundle's decision indices.
func bundleIndices(b *Bundle) []int {
	out := make([]int, len(b.Decisions))
	for i, d := range b.Decisions {
		out[i] = d.Index
	}
	return out
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestRecorderBundleRoundTrip drives one alarm through a recorder
// with a bundle directory and checks the persisted bundle reproduces
// the decision exactly — including the Mahalanobis distances, which
// must survive the JSON round trip bit for bit.
func TestRecorderBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRecorder(RecorderConfig{Window: 3, Dir: dir, Header: testHeader()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r.Record(dec(i, i == 10))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Frames != 20 || st.Alarms != 1 || st.Bundles != 1 {
		t.Fatalf("stats = %+v, want 20 frames / 1 alarm / 1 bundle", st)
	}
	bs := r.Bundles()
	if len(bs) != 1 {
		t.Fatalf("retained %d bundles, want 1", len(bs))
	}
	b := bs[0]
	if b.Truncated {
		t.Fatal("complete window marked truncated")
	}
	if got, want := bundleIndices(b), rangeInts(7, 13); !reflect.DeepEqual(got, want) {
		t.Fatalf("bundle covers %v, want %v", got, want)
	}
	if b.AlarmIndex != 10 || b.Severity != obs.SeverityCritical {
		t.Fatalf("bundle alarm meta %d/%q", b.AlarmIndex, b.Severity)
	}
	if b.Path == "" {
		t.Fatal("bundle has no on-disk path")
	}

	got, err := ReadBundle(b.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bundleIndices(got), bundleIndices(b)) {
		t.Fatalf("reloaded bundle covers %v, want %v", bundleIndices(got), bundleIndices(b))
	}
	alarm := got.Alarm()
	if alarm == nil {
		t.Fatal("reloaded bundle has no alarm decision")
	}
	want := b.Alarm()
	// The decision record must reproduce the alarm's distances exactly:
	// encoding/json emits the shortest float representation that parses
	// back to the identical float64, so == is the right comparison.
	if alarm.MinDist != want.MinDist || alarm.Threshold != want.Threshold || alarm.Margin != want.Margin {
		t.Fatalf("reloaded alarm dist/threshold/margin %v/%v/%v, want %v/%v/%v",
			alarm.MinDist, alarm.Threshold, alarm.Margin, want.MinDist, want.Threshold, want.Margin)
	}
	if !reflect.DeepEqual(alarm.Distances, want.Distances) {
		t.Fatalf("reloaded distances %v, want %v", alarm.Distances, want.Distances)
	}
	if !reflect.DeepEqual(alarm.EdgeSet, want.EdgeSet) {
		t.Fatalf("reloaded edge set %v, want %v", alarm.EdgeSet, want.EdgeSet)
	}
	// The waveform sidecar must reattach every frame's raw samples.
	for i, d := range got.Decisions {
		if !reflect.DeepEqual(d.Samples, b.Decisions[i].Samples) {
			t.Fatalf("decision %d samples %v, want %v", d.Index, d.Samples, b.Decisions[i].Samples)
		}
	}
	// The sidecar is a standard capture file in its own right.
	f, err := os.Open(filepath.Join(b.Path, bundleWaveformFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.OpenReader(f)
	if err != nil {
		t.Fatalf("waveform sidecar is not a readable capture: %v", err)
	}
	if rd.Header().Vehicle != "test" {
		t.Fatalf("sidecar header vehicle %q", rd.Header().Vehicle)
	}
}

// TestRecorderConcurrentAlarms is the overlapping-window guarantee:
// two alarms inside one window produce two complete, well-formed
// bundles, and the bundles share decision records without sharing
// slice storage. Concurrent /debug/flight scrapes run throughout so
// the race detector sees reader/writer interleavings.
func TestRecorderConcurrentAlarms(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
			r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?bundle=1", nil))
		}
	}()

	// Alarms at 10 and 12: frame 12 lands inside frame 10's post-alarm
	// window, so the windows overlap and frames 12..14 belong to both.
	for i := 0; i < 20; i++ {
		r.Record(dec(i, i == 10 || i == 12))
	}
	close(stop)
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	bs := r.Bundles()
	if len(bs) != 2 {
		t.Fatalf("got %d bundles, want 2", len(bs))
	}
	wantRanges := [][]int{rangeInts(6, 14), rangeInts(8, 16)}
	for i, b := range bs {
		if b.Truncated {
			t.Fatalf("bundle %d truncated", b.Seq)
		}
		if got := bundleIndices(b); !reflect.DeepEqual(got, wantRanges[i]) {
			t.Fatalf("bundle %d covers %v, want %v", b.Seq, got, wantRanges[i])
		}
		if b.Alarm() == nil {
			t.Fatalf("bundle %d lost its alarm decision", b.Seq)
		}
	}
	// The overlap must be pointer-shared records (immutability contract,
	// not copies)...
	if bs[0].Decisions[len(bs[0].Decisions)-1] != bs[1].Decisions[6] {
		t.Fatal("overlapping context is not sharing decision records")
	}
	// ...but the Decisions slices themselves must not alias: clobbering
	// one bundle's slice may not disturb the other.
	for i := range bs[0].Decisions {
		bs[0].Decisions[i] = nil
	}
	if got := bundleIndices(bs[1]); !reflect.DeepEqual(got, wantRanges[1]) {
		t.Fatalf("bundle 2 changed when bundle 1's slice was clobbered: %v", got)
	}
}

// TestRecorderTruncatedWindow closes the recorder while a capture
// window still awaits post-context: the bundle must be flushed,
// marked truncated, and announced in the event log with its severity
// and trace id.
func TestRecorderTruncatedWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecorder(RecorderConfig{Window: 5, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		r.Record(dec(i, i == 10)) // only 1 post-alarm frame arrives
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := events.Close(nil); err != nil {
		t.Fatal(err)
	}

	bs := r.Bundles()
	if len(bs) != 1 || !bs[0].Truncated {
		t.Fatalf("bundles = %+v, want one truncated bundle", bs)
	}
	if got, want := bundleIndices(bs[0]), rangeInts(5, 11); !reflect.DeepEqual(got, want) {
		t.Fatalf("truncated bundle covers %v, want %v", got, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var flight *obs.Event
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Kind == obs.EventFlight {
			flight = &e
			break
		}
	}
	if flight == nil {
		t.Fatal("no flight event in the log")
	}
	if flight.Severity != obs.SeverityCritical {
		t.Fatalf("flight event severity %q", flight.Severity)
	}
	if flight.Trace != TraceID(11).String() {
		t.Fatalf("flight event trace %q, want %q", flight.Trace, TraceID(11).String())
	}
}

// TestFlightHandler exercises /debug/flight's summary and per-bundle
// views.
func TestFlightHandler(t *testing.T) {
	r, err := NewRecorder(RecorderConfig{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Record(dec(i, i == 5))
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("summary status %d", rec.Code)
	}
	var sum struct {
		Window  int       `json:"window"`
		Frames  int64     `json:"frames"`
		Alarms  int64     `json:"alarms"`
		Bundles []*Bundle `json:"bundles"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Window != 2 || sum.Frames != 10 || sum.Alarms != 1 || len(sum.Bundles) != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if len(sum.Bundles[0].Decisions) != 0 {
		t.Fatal("summary leaked full decision records")
	}

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?bundle=1", nil))
	if rec.Code != 200 {
		t.Fatalf("bundle status %d", rec.Code)
	}
	var b Bundle
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if got, want := bundleIndices(&b), rangeInts(3, 7); !reflect.DeepEqual(got, want) {
		t.Fatalf("served bundle covers %v, want %v", got, want)
	}

	for q, code := range map[string]int{"?bundle=99": 404, "?bundle=x": 400} {
		rec = httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight"+q, nil))
		if rec.Code != code {
			t.Fatalf("%s status %d, want %d", q, rec.Code, code)
		}
	}
}

// TestSpansNilSafe verifies the zero-cost path: span calls on an
// untraced frame are no-ops, and traced spans record their attrs and
// timing.
func TestSpansNilSafe(t *testing.T) {
	var ft *FrameTrace
	sp := ft.StartSpan("anything")
	sp.SetAttr("k", "v") // must not panic
	sp.End()
	if sp != nil {
		t.Fatal("nil trace produced a span")
	}

	ft = NewFrameTrace(7)
	if ft.ID.String() != "0000000000000007" {
		t.Fatalf("trace id renders as %q", ft.ID.String())
	}
	sp = ft.StartSpan("stage")
	sp.SetAttr("reason", "ok")
	sp.End()
	if len(ft.Spans) != 1 {
		t.Fatalf("trace has %d spans", len(ft.Spans))
	}
	got := ft.Spans[0]
	if got.Name != "stage" || got.EndNS < got.StartNS {
		t.Fatalf("span %+v", got)
	}
	if len(got.Attrs) != 1 || got.Attrs[0] != (Attr{Key: "reason", Value: "ok"}) {
		t.Fatalf("span attrs %+v", got.Attrs)
	}
	if got.Duration() < 0 {
		t.Fatalf("negative duration %v", got.Duration())
	}
	if obs.AlarmsOf([]string{AlarmVoltage}).Severity() != obs.SeverityCritical {
		t.Fatal("voltage severity mapping broken")
	}
}
