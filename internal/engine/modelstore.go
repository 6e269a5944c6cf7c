// Package engine owns the capture→verdict session lifecycle the CLIs
// used to hand-wire: source opening (plain/gzip, optional corruption
// recovery), the composite IDS, the concurrent replay pipeline,
// observability (metrics registry, event log, HTTP endpoint, flight
// recorder) and graceful shutdown. A Session is one bus; a Fleet runs
// several sessions concurrently over one shared worker pool; a
// ModelStore hot-swaps the detection model under both without a
// restart.
package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vprofile/internal/core"
)

// LoadModelFile reads a trained vProfile model from disk — the one
// model-loading helper every CLI path shares, so error wording is
// identical everywhere a model fails to load.
func LoadModelFile(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("load model %s: %w", path, err)
	}
	return m, nil
}

// StoredModel is one versioned model generation held by a ModelStore.
type StoredModel struct {
	Model   *core.Model
	Version int
}

// modelSwapDetail renders the model_swap event detail. Version alone
// is not interpretable when reading drift baselines against swap
// events, so the model's shape rides along.
func modelSwapDetail(sm StoredModel) string {
	return fmt.Sprintf("model version %d (dim %d, %d clusters, margin %g)",
		sm.Version, sm.Model.Dim, len(sm.Model.Clusters), sm.Model.Margin)
}

// ModelStore is an atomic hot-swap holder for the detection model. It
// implements ids.ModelProvider, so a Composite built against a store
// re-reads the current model once per frame (the consistency boundary
// documented on ids.ModelProvider): frames in flight across a swap
// score against either the old or the new version, never a mix, and a
// frame's whole verdict comes from a single version.
//
// Swaps are validated before they land — a candidate must be non-nil
// and dimension-compatible with the current model, because the
// distance kernels assume every edge-set vector matches the model's
// Dim. A rejected swap leaves the current model untouched.
type ModelStore struct {
	cur atomic.Pointer[StoredModel]

	mu        sync.Mutex // serialises swaps and listener registration
	listeners []func(StoredModel)
}

// NewModelStore holds the initial model as version 1.
func NewModelStore(m *core.Model) (*ModelStore, error) {
	if m == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	s := &ModelStore{}
	s.cur.Store(&StoredModel{Model: m, Version: 1})
	return s, nil
}

// AcquireModel returns the current model (ids.ModelProvider). It is a
// single atomic pointer load, safe from any goroutine.
func (s *ModelStore) AcquireModel() *core.Model { return s.cur.Load().Model }

// Current returns the current model with its version.
func (s *ModelStore) Current() StoredModel { return *s.cur.Load() }

// Version returns the current model generation (1 = initial).
func (s *ModelStore) Version() int { return s.cur.Load().Version }

// Swap validates the candidate and, if compatible, publishes it as
// the next generation, returning the new version. Verdicts already
// holding the old pointer finish against the old model.
func (s *ModelStore) Swap(m *core.Model) (int, error) {
	if m == nil {
		return 0, fmt.Errorf("engine: swap rejected: nil model")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.cur.Load()
	if m.Dim != old.Model.Dim {
		return 0, fmt.Errorf("engine: swap rejected: model dimension %d does not match running dimension %d",
			m.Dim, old.Model.Dim)
	}
	next := StoredModel{Model: m, Version: old.Version + 1}
	s.cur.Store(&next)
	for _, fn := range s.listeners {
		fn(next)
	}
	return next.Version, nil
}

// SwapFile loads a model file and swaps it in.
func (s *ModelStore) SwapFile(path string) (int, error) {
	m, err := LoadModelFile(path)
	if err != nil {
		return 0, err
	}
	return s.Swap(m)
}

// OnSwap registers a listener called (under the swap lock, in
// registration order) after each successful swap — sessions use it to
// publish the version gauge and the model_swap event.
func (s *ModelStore) OnSwap(fn func(StoredModel)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listeners = append(s.listeners, fn)
}

// Watch polls path every interval and swaps the model in whenever the
// file's modification time or size changes — the -model-watch mode.
// It blocks until stop closes, so run it in its own goroutine. Load
// or validation failures are logged via logf (may be nil) and do not
// stop the watch: a half-written file simply gets picked up on a
// later tick once it parses.
func (s *ModelStore) Watch(path string, interval time.Duration, stop <-chan struct{}, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	var lastMod time.Time
	var lastSize int64
	if fi, err := os.Stat(path); err == nil {
		lastMod, lastSize = fi.ModTime(), fi.Size()
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		fi, err := os.Stat(path)
		if err != nil {
			continue // file mid-replace; retry next tick
		}
		if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
			continue
		}
		lastMod, lastSize = fi.ModTime(), fi.Size()
		v, err := s.SwapFile(path)
		if err != nil {
			logf("engine: model watch: %v", err)
			continue
		}
		logf("engine: model watch: swapped in %s as version %d", path, v)
	}
}
