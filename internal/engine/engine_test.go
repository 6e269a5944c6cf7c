package engine_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vprofile/internal/attack"
	"vprofile/internal/canbus"
	"vprofile/internal/core"
	"vprofile/internal/engine"
	"vprofile/internal/experiments"
	"vprofile/internal/ids"
	"vprofile/internal/pipeline"
	"vprofile/internal/trace"
	"vprofile/internal/vehicle"
)

var (
	modelOnce sync.Once
	testModel *core.Model
)

// sharedModel trains one Mahalanobis model for the whole test
// package — training dominates test time, and every test only needs
// a deterministic model, not a freshly trained one.
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

// buildCapture renders clean traffic (covering the composite's
// warm-up) followed by a foreign-device attack segment, so replays
// exercise healthy verdicts, voltage anomalies and the timing path.
func buildCapture(t testing.TB, seed int64, cleanN, attackN int) []byte {
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
	msgs, err := attack.Run(v, attack.Scenario{Kind: attack.Foreign, VictimECU: 1, NumMessages: attackN, Seed: seed + 1})
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

func writeFile(t testing.TB, path string, data []byte) string {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sequentialRef replays one capture on the reference sequential path
// against a fixed model and returns every composite verdict.
func sequentialRef(t testing.TB, path string, m *core.Model) []ids.CompositeResult {
	t.Helper()
	rd, closer, err := trace.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	mon, err := ids.NewComposite(m, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header())})
	if err != nil {
		t.Fatal(err)
	}
	var out []ids.CompositeResult
	_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		out = append(out, r.Verdict)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffResults reports the first difference between two composite
// verdicts, or "" when they match bit for bit.
func diffResults(a, b ids.CompositeResult) string {
	if a.Voltage != b.Voltage {
		return fmt.Sprintf("voltage %+v vs %+v", a.Voltage, b.Voltage)
	}
	if errText(a.ExtractErr) != errText(b.ExtractErr) {
		return fmt.Sprintf("extract err %q vs %q", errText(a.ExtractErr), errText(b.ExtractErr))
	}
	if a.Timing != b.Timing || errText(a.TimingErr) != errText(b.TimingErr) {
		return fmt.Sprintf("timing %v/%q vs %v/%q", a.Timing, errText(a.TimingErr), b.Timing, errText(b.TimingErr))
	}
	if errText(a.TransferErr) != errText(b.TransferErr) {
		return fmt.Sprintf("transfer err %q vs %q", errText(a.TransferErr), errText(b.TransferErr))
	}
	if (a.Transfer == nil) != (b.Transfer == nil) {
		return fmt.Sprintf("transfer %v vs %v", a.Transfer, b.Transfer)
	}
	return ""
}

// TestFleetDeterminism replays two buses through a fleet at several
// shared-pool widths and requires every bus's verdict stream to be
// bit-identical to its own sequential single-bus replay — the shared
// pool must never leak state or order across buses.
func TestFleetDeterminism(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 700, 250))
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), buildCapture(t, 301, 650, 200))
	refs := map[string][]ids.CompositeResult{
		"a": sequentialRef(t, pa, m),
		"b": sequentialRef(t, pb, m),
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fleet, err := engine.NewFleet([]string{pa, pb},
				engine.WithModel(m), engine.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][]ids.CompositeResult{}
			sums, err := fleet.Run(func(res engine.Result) error {
				if res.Index != len(got[res.Bus]) {
					return fmt.Errorf("bus %s: result %d arrived after %d results", res.Bus, res.Index, len(got[res.Bus]))
				}
				got[res.Bus] = append(got[res.Bus], res.Verdict)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sums) != 2 || sums[0].Bus != "a" || sums[1].Bus != "b" {
				t.Fatalf("unexpected summaries: %+v", sums)
			}
			for bus, ref := range refs {
				if len(got[bus]) != len(ref) {
					t.Fatalf("bus %s: %d results, want %d", bus, len(got[bus]), len(ref))
				}
				for i := range ref {
					if d := diffResults(got[bus][i], ref[i]); d != "" {
						t.Fatalf("bus %s record %d: %s", bus, i, d)
					}
				}
			}
		})
	}
}

// TestFleetFailIsolation truncates one bus's capture mid-record: that
// bus must abort with an AbortError while the healthy bus still
// delivers its complete verdict stream.
func TestFleetFailIsolation(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	good := buildCapture(t, 201, 700, 250)
	bad := buildCapture(t, 301, 650, 200)
	pa := writeFile(t, filepath.Join(dir, "a.vptr"), good)
	pb := writeFile(t, filepath.Join(dir, "b.vptr"), bad[:len(bad)-200])
	want := len(sequentialRef(t, pa, m))

	fleet, err := engine.NewFleet([]string{pa, pb}, engine.WithModel(m), engine.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sums, err := fleet.Run(func(res engine.Result) error {
		counts[res.Bus]++
		return nil
	})
	if err == nil {
		t.Fatal("fleet with a truncated bus returned nil error")
	}
	var abort *engine.AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("fleet error %v is not an AbortError", err)
	}
	if sums[0].Err != nil {
		t.Fatalf("healthy bus failed: %v", sums[0].Err)
	}
	if counts["a"] != want {
		t.Fatalf("healthy bus delivered %d results, want %d", counts["a"], want)
	}
	if sums[1].Err == nil || !errors.As(sums[1].Err, &abort) {
		t.Fatalf("truncated bus error = %v, want AbortError", sums[1].Err)
	}
}

// cloneModel round-trips a model through its wire format.
func cloneModel(t testing.TB, m *core.Model) *core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// variantModel returns a same-dimension model that judges visibly
// differently: one known sender is deleted from its lookup table, so
// every frame from that SA flags ReasonUnknownSA.
func variantModel(t testing.TB, m *core.Model) (*core.Model, canbus.SourceAddress) {
	t.Helper()
	m2 := cloneModel(t, m)
	sas := make([]int, 0, len(m2.SALUT))
	for sa := range m2.SALUT {
		sas = append(sas, int(sa))
	}
	sort.Ints(sas)
	victim := canbus.SourceAddress(sas[0])
	delete(m2.SALUT, victim)
	return m2, victim
}

func TestModelStoreSwapValidation(t *testing.T) {
	m := sharedModel(t)
	st, err := engine.NewModelStore(m)
	if err != nil {
		t.Fatal(err)
	}
	if v := st.Version(); v != 1 {
		t.Fatalf("initial version %d, want 1", v)
	}
	if _, err := st.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	bad := cloneModel(t, m)
	bad.Dim++
	if _, err := st.Swap(bad); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("dim-mismatch swap: err = %v", err)
	}
	if st.Version() != 1 || st.AcquireModel() != m {
		t.Fatal("rejected swap mutated the store")
	}

	var notified int
	st.OnSwap(func(sm engine.StoredModel) { notified = sm.Version })
	m2, _ := variantModel(t, m)
	v, err := st.Swap(m2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || st.Version() != 2 || st.AcquireModel() != m2 || notified != 2 {
		t.Fatalf("swap bookkeeping: v=%d version=%d notified=%d", v, st.Version(), notified)
	}
}

func TestLoadModelFile(t *testing.T) {
	if _, err := engine.LoadModelFile(filepath.Join(t.TempDir(), "missing.vpm")); err == nil || !strings.Contains(err.Error(), "load model") {
		t.Fatalf("missing model error = %v", err)
	}
	bad := writeFile(t, filepath.Join(t.TempDir(), "bad.vpm"), []byte("not a model"))
	if _, err := engine.LoadModelFile(bad); err == nil || !strings.Contains(err.Error(), "load model") {
		t.Fatalf("corrupt model error = %v", err)
	}
}

func TestModelStoreWatch(t *testing.T) {
	m := sharedModel(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.vpm")
	saveModel := func(mm *core.Model) {
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := mm.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	saveModel(m)
	st, err := engine.NewModelStore(m)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go st.Watch(path, 5*time.Millisecond, stop, t.Logf)

	time.Sleep(20 * time.Millisecond) // let the watch record the baseline stat
	m2, _ := variantModel(t, m)
	saveModel(m2)
	deadline := time.Now().Add(10 * time.Second)
	for st.Version() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watch never swapped the rewritten model in")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cur := st.Current()
	if cur.Version != 2 || len(cur.Model.SALUT) != len(m.SALUT)-1 {
		t.Fatalf("watch swapped wrong model: %+v", cur.Version)
	}
}

// TestHotSwapSequentialBoundary swaps the model from the sink at a
// known record index on the deterministic sequential path: every
// frame up to and including the swap index must score against v1,
// every later frame against v2 — one frame, one model version.
func TestHotSwapSequentialBoundary(t *testing.T) {
	m1 := sharedModel(t)
	m2, victim := variantModel(t, m1)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 700, 250))
	ref1 := sequentialRef(t, path, m1)
	ref2 := sequentialRef(t, path, m2)

	const swapAt = 400
	differs := false
	for i := swapAt + 1; i < len(ref1); i++ {
		if ref1[i].Voltage != ref2[i].Voltage {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatalf("test is vacuous: deleting SA %#02x changed no post-swap verdict", uint8(victim))
	}

	st, err := engine.NewModelStore(m1)
	if err != nil {
		t.Fatal(err)
	}
	rd, closer, err := trace.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	mon, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header()), Models: st})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Detection
	_, err = pipeline.Sequential(rd, mon, func(r pipeline.Result) error {
		got = append(got, r.Verdict.Voltage)
		if r.Index == swapAt {
			if _, err := st.Swap(m2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref1) {
		t.Fatalf("%d results, want %d", len(got), len(ref1))
	}
	for i, d := range got {
		want := ref1[i].Voltage
		if i > swapAt {
			want = ref2[i].Voltage
		}
		if d != want {
			t.Fatalf("record %d (swap at %d): %+v, want %+v", i, swapAt, d, want)
		}
	}
}

// TestHotSwapConcurrent hammers Swap while the concurrent pipeline
// replays: under the race detector this proves the acquire/swap path
// is clean, and every frame's voltage verdict must match exactly one
// of the two model versions — never a blend.
func TestHotSwapConcurrent(t *testing.T) {
	m1 := sharedModel(t)
	m2, _ := variantModel(t, m1)
	dir := t.TempDir()
	path := writeFile(t, filepath.Join(dir, "a.vptr"), buildCapture(t, 201, 700, 250))
	ref1 := sequentialRef(t, path, m1)
	ref2 := sequentialRef(t, path, m2)

	st, err := engine.NewModelStore(m1)
	if err != nil {
		t.Fatal(err)
	}
	rd, closer, err := trace.OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	mon, err := ids.NewComposite(nil, ids.CompositeConfig{Extraction: engine.ExtractionFor(rd.Header()), Models: st})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		next := m2
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Swap(next); err != nil {
				t.Error(err)
				return
			}
			if next == m2 {
				next = m1
			} else {
				next = m2
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	pool := pipeline.NewPool(4)
	defer pool.Close()
	rep, err := pipeline.New(mon, pipeline.Config{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Detection
	err = rep.Run(rd, func(r pipeline.Result) error {
		got = append(got, r.Verdict.Voltage)
		return nil
	})
	close(stop)
	swapper.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref1) {
		t.Fatalf("%d results, want %d", len(got), len(ref1))
	}
	for i, d := range got {
		if d != ref1[i].Voltage && d != ref2[i].Voltage {
			t.Fatalf("record %d: %+v matches neither v1 %+v nor v2 %+v", i, d, ref1[i].Voltage, ref2[i].Voltage)
		}
	}
}

func TestBusNames(t *testing.T) {
	got := engine.BusNames([]string{"caps/a.vptr", "caps/b.vptr.gz", "other/a.vptr", "x"})
	want := []string{"a", "b", "a-2", "x"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BusNames = %v, want %v", got, want)
		}
	}
}

// TestFlagParity pins the shared CLI flag set: every replay tool
// registers exactly these session flags through engine.RegisterFlags,
// so renaming or dropping one here is renaming it everywhere.
func TestFlagParity(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	engine.RegisterFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	want := []string{"capture", "drift", "events", "flight", "flight-window", "incidents",
		"max-events", "metrics", "model", "model-watch", "quarantine", "recover",
		"stall-timeout", "workers"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("shared flags = %v, want %v", names, want)
	}
	// -workers follows the "0 = GOMAXPROCS" convention every tool
	// documents (vprofile faults registers its own flag set with the
	// same default); a GOMAXPROCS-valued default would bake the
	// parsing machine's core count into help text and defeat the
	// convention.
	if def := fs.Lookup("workers").DefValue; def != "0" {
		t.Fatalf("-workers default = %q, want 0", def)
	}
}
