// Package controlserver hosts the vprofiled runtime: the fleet policy
// lifecycle (load, hot reload, diff application), each attached bus's
// ingest listener, the alarm hub behind the event
// subscription, and the HTTP control API on top (server.go). Every
// feed runs as a member of one engine.Fleet, which owns the models,
// the shared worker pool and the event outlet the hub and the
// alarms.events mirror subscribe to. The split from
// controlapi/controlclient keeps the daemon the only place with engine
// wiring; clients speak wire types only.
package controlserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vprofile/internal/control"
	"vprofile/internal/control/controlapi"
	"vprofile/internal/engine"
	"vprofile/internal/ids"
	"vprofile/internal/obs"
	"vprofile/internal/trace"
)

// Config configures a Daemon.
type Config struct {
	// Policy is the initial fleet policy (nil starts an empty daemon
	// that buses are attached to via the API).
	Policy *control.Policy
	// Logf receives the daemon's log lines; nil silences them.
	Logf func(format string, args ...any)
	// BaseDir anchors relative model paths on API attach/swap when no
	// policy directory applies (default ".").
	BaseDir string
}

// Daemon is the control-plane root: bus registry, policy state, alarm
// hub, over the fleet every feed runs on. All methods are safe for
// concurrent use — the HTTP layer calls straight in.
type Daemon struct {
	logf    func(format string, args ...any)
	baseDir string
	fleet   *engine.Fleet
	hub     *eventHub
	mirror  *obs.EventLog // optional JSONL alarm mirror (policy alarms.events)

	mu        sync.Mutex
	buses     map[string]*busRun
	order     []string
	policy    *control.Policy
	policyGen int
	draining  bool
}

// New builds the daemon and attaches every bus of the initial policy.
// On error the partially attached buses are torn down.
func New(cfg Config) (*Daemon, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	baseDir := cfg.BaseDir
	if baseDir == "" {
		baseDir = "."
	}
	buffer := control.DefaultEventBuffer
	if cfg.Policy != nil && cfg.Policy.Alarms.Buffer > 0 {
		buffer = cfg.Policy.Alarms.Buffer
	}
	fleet, err := engine.NewFleet(nil)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		logf:    logf,
		baseDir: baseDir,
		fleet:   fleet,
		hub:     newEventHub(buffer),
		buses:   map[string]*busRun{},
	}
	fleet.Subscribe(d.hub.Publish)
	if cfg.Policy != nil {
		if cfg.Policy.Alarms.Events != "" {
			mirror, err := obs.CreateEventLog(cfg.Policy.Alarms.Events)
			if err != nil {
				_ = fleet.Close()
				return nil, fmt.Errorf("alarms.events: %w", err)
			}
			d.mirror = mirror
			fleet.Subscribe(func(e obs.Event) { _ = mirror.Emit(e) })
		}
		if _, err := d.ApplyPolicy(cfg.Policy); err != nil {
			d.Drain(2 * time.Second)
			return nil, err
		}
	}
	return d, nil
}

// Events is the long-poll subscription read (see eventHub.Poll).
func (d *Daemon) Events(after uint64, max int, wait time.Duration) controlapi.EventsResponse {
	return d.hub.Poll(after, max, wait)
}

// pathDir is what relative paths resolve against: the policy
// directory when a policy is loaded, else the daemon's base directory.
func (d *Daemon) pathDir() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.policy != nil && d.policy.Dir != "" {
		return d.policy.Dir
	}
	return d.baseDir
}

// resolvePath anchors a relative path at pathDir.
func (d *Daemon) resolvePath(p string) string {
	if p == "" || filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(d.pathDir(), p)
}

// Attach brings one bus up: validate the spec, load its model into the
// fleet, bind its ingest listener, start its accept loop.
func (d *Daemon) Attach(spec controlapi.BusSpec) (controlapi.BusStatus, error) {
	d.mu.Lock()
	draining, dup := d.draining, d.buses[spec.Bus] != nil
	d.mu.Unlock()
	switch {
	case draining:
		return controlapi.BusStatus{}, errors.New("daemon is draining")
	case dup:
		return controlapi.BusStatus{}, fmt.Errorf("bus %q is already attached", spec.Bus)
	}
	if err := control.ValidateSpec(&spec, d.pathDir()); err != nil {
		return controlapi.BusStatus{}, err
	}

	// The fleet holds one model per bus, so a concurrent attach of the
	// same name fails in startBus.
	b, err := d.startBus(spec)
	if err != nil {
		return controlapi.BusStatus{}, err
	}
	d.mu.Lock()
	d.buses[spec.Bus] = b
	d.order = append(d.order, spec.Bus)
	d.mu.Unlock()
	d.logf("bus %s: attached, ingest %s://%s", spec.Bus, b.scheme, b.ingest)
	return b.status(), nil
}

// Detach stops a bus: close its listener, drain its live session (up
// to timeout, then hard-close the feed), remove it from the registry.
func (d *Daemon) Detach(bus string, timeout time.Duration) (controlapi.BusStatus, error) {
	d.mu.Lock()
	b, ok := d.buses[bus]
	if ok {
		delete(d.buses, bus)
		for i, n := range d.order {
			if n == bus {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
	}
	d.mu.Unlock()
	if !ok {
		return controlapi.BusStatus{}, fmt.Errorf("bus %q is not attached", bus)
	}
	b.drain(timeout)
	st := b.status()
	st.State = controlapi.BusDetached
	d.logf("bus %s: detached (%d sessions, %d aborted)", bus, st.Sessions, st.SessionsAborted)
	return st, nil
}

// Swap hot-swaps one bus's model mid-stream through its fleet model
// store; in-flight frames score against old or new, never a mix, and
// no frame is dropped.
func (d *Daemon) Swap(bus, model string) (controlapi.SwapResponse, error) {
	d.mu.Lock()
	b, ok := d.buses[bus]
	d.mu.Unlock()
	if !ok {
		return controlapi.SwapResponse{}, fmt.Errorf("bus %q is not attached", bus)
	}
	v, err := b.store.SwapFile(d.resolvePath(model))
	if err != nil {
		return controlapi.SwapResponse{}, err
	}
	b.mu.Lock()
	b.spec.Model = model
	b.mu.Unlock()
	d.logf("bus %s: model swapped to %s (version %d)", bus, model, v)
	return controlapi.SwapResponse{Bus: bus, Model: model, Version: v}, nil
}

// ApplyPolicy applies a validated policy as a diff against the
// current one: unchanged buses are not touched (their listeners stay
// bound and their detector state survives), model-only changes
// hot-swap in place, everything else restarts just that bus.
func (d *Daemon) ApplyPolicy(p *control.Policy) (controlapi.ReloadResponse, error) {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return controlapi.ReloadResponse{}, errors.New("daemon is draining")
	}
	old := d.policy
	d.mu.Unlock()

	diff := control.DiffPolicies(old, p)
	// Install the policy before applying the diff so relative model
	// paths in Attach/Swap resolve against the new policy's directory.
	d.mu.Lock()
	d.policy = p
	d.mu.Unlock()
	var errs []error
	for _, bus := range diff.Removed {
		if _, err := d.Detach(bus, 5*time.Second); err != nil {
			errs = append(errs, err)
		}
	}
	for _, bus := range diff.Restarted {
		if _, err := d.Detach(bus, 5*time.Second); err != nil {
			errs = append(errs, err)
		}
	}
	for _, bus := range diff.Swapped {
		if _, err := d.Swap(bus, p.Bus(bus).Model); err != nil {
			errs = append(errs, fmt.Errorf("swap %s: %w", bus, err))
		}
	}
	for _, bus := range append(append([]string{}, diff.Restarted...), diff.Added...) {
		if _, err := d.Attach(*p.Bus(bus)); err != nil {
			errs = append(errs, fmt.Errorf("attach %s: %w", bus, err))
		}
	}
	d.mu.Lock()
	d.policyGen++
	gen := d.policyGen
	d.mu.Unlock()
	resp := controlapi.ReloadResponse{
		PolicyGen: gen,
		Added:     diff.Added, Removed: diff.Removed,
		Swapped: diff.Swapped, Restarted: diff.Restarted, Unchanged: diff.Unchanged,
	}
	if len(errs) > 0 {
		return resp, errors.Join(errs...)
	}
	d.logf("policy applied (gen %d): %d added, %d removed, %d swapped, %d restarted, %d unchanged",
		gen, len(diff.Added), len(diff.Removed), len(diff.Swapped), len(diff.Restarted), len(diff.Unchanged))
	return resp, nil
}

// Reload re-reads the policy file the daemon was started with and
// applies the diff. Validation failures leave the running state
// untouched.
func (d *Daemon) Reload() (controlapi.ReloadResponse, error) {
	d.mu.Lock()
	var path string
	if d.policy != nil {
		path = d.policy.Path
	}
	d.mu.Unlock()
	if path == "" {
		return controlapi.ReloadResponse{}, errors.New("daemon was started without a policy file")
	}
	p, err := control.LoadPolicy(path)
	if err != nil {
		return controlapi.ReloadResponse{}, err
	}
	return d.ApplyPolicy(p)
}

// Status is the daemon-wide view, buses in attach order.
func (d *Daemon) Status() controlapi.StatusResponse {
	d.mu.Lock()
	var resp controlapi.StatusResponse
	if d.policy != nil {
		resp.PolicyPath = d.policy.Path
	}
	resp.PolicyGen = d.policyGen
	resp.Draining = d.draining
	runs := make([]*busRun, 0, len(d.order))
	for _, name := range d.order {
		runs = append(runs, d.buses[name])
	}
	d.mu.Unlock()
	for _, b := range runs {
		resp.Buses = append(resp.Buses, b.status())
	}
	return resp
}

// BusStatus is one bus's view.
func (d *Daemon) BusStatus(bus string) (controlapi.BusStatus, error) {
	d.mu.Lock()
	b, ok := d.buses[bus]
	d.mu.Unlock()
	if !ok {
		return controlapi.BusStatus{}, fmt.Errorf("bus %q is not attached", bus)
	}
	return b.status(), nil
}

// Flight lists a bus's finished flight bundles, or opens one bundle
// file for download.
func (d *Daemon) Flight(bus string) (controlapi.FlightList, error) {
	d.mu.Lock()
	b, ok := d.buses[bus]
	d.mu.Unlock()
	if !ok {
		return controlapi.FlightList{}, fmt.Errorf("bus %q is not attached", bus)
	}
	dir := b.flightDir()
	if dir == "" {
		return controlapi.FlightList{}, fmt.Errorf("bus %q has no flight recorder", bus)
	}
	list := controlapi.FlightList{Bus: bus}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return list, nil // recorder enabled, no bundles yet
		}
		return list, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		fb := controlapi.FlightBundle{Bus: bus, Bundle: e.Name()}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if !f.IsDir() {
				fb.Files = append(fb.Files, f.Name())
			}
		}
		list.Bundles = append(list.Bundles, fb)
	}
	sort.Slice(list.Bundles, func(i, j int) bool { return list.Bundles[i].Bundle < list.Bundles[j].Bundle })
	return list, nil
}

// FlightFile opens one file of one bundle for streaming to a client.
// The bundle and file names are validated as single path segments so
// the API cannot read outside the bus's flight directory.
func (d *Daemon) FlightFile(bus, bundle, file string) (io.ReadCloser, error) {
	d.mu.Lock()
	b, ok := d.buses[bus]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("bus %q is not attached", bus)
	}
	dir := b.flightDir()
	if dir == "" {
		return nil, fmt.Errorf("bus %q has no flight recorder", bus)
	}
	for _, seg := range []string{bundle, file} {
		if seg == "" || seg != filepath.Base(seg) || strings.HasPrefix(seg, ".") {
			return nil, fmt.Errorf("invalid bundle path segment %q", seg)
		}
	}
	return os.Open(filepath.Join(dir, bundle, file))
}

// Drain is the graceful shutdown: every bus's listener closes, every
// live session is asked to stop at its next record boundary, event
// logs flush, flight bundles close, and final tallies are logged. The
// returned exit code follows the CLI convention — 0 on a clean drain,
// 3 when any session aborted mid-stream (over the daemon's whole
// life, not just the drain).
func (d *Daemon) Drain(timeout time.Duration) int {
	d.mu.Lock()
	d.draining = true
	runs := make([]*busRun, 0, len(d.order))
	for _, name := range d.order {
		runs = append(runs, d.buses[name])
	}
	d.mu.Unlock()

	for _, b := range runs {
		b.stop()
	}
	deadline := time.Now().Add(timeout)
	aborted := 0
	for _, b := range runs {
		b.waitDone(time.Until(deadline))
		st := b.status()
		aborted += st.SessionsAborted
		if t := st.Tally; t != nil {
			d.logf("bus %s: final tally: %d frames, %d voltage alarms, %d timing alarms, %d suppressed, %d corruption stretches",
				st.Bus, t.Frames, t.VoltAlarms+t.PreprocFailed, t.PeriodAlarms, t.Suppressed, t.Corruptions)
			if t.Gaps != nil {
				d.logf("bus %s: datagram gaps: %d lost, %d late, %d accepted",
					st.Bus, t.Gaps.LostChunks, t.Gaps.LateChunks, t.Gaps.Datagrams)
			}
		} else {
			d.logf("bus %s: final tally: no frames ingested", st.Bus)
		}
	}
	_ = d.fleet.Close()
	if d.mirror != nil {
		_ = d.mirror.Close(nil)
	}
	if aborted > 0 {
		d.logf("drain complete: %d session(s) aborted", aborted)
		return 3
	}
	d.logf("drain complete: all sessions flushed cleanly")
	return 0
}

// busRun is one attached bus: its ingest listener, its fleet model
// store, and its latest fleet member — streaming while feed is set,
// else the last finished one (at most one feed at a time; later feeds
// queue on the listener's accept backlog).
type busRun struct {
	d        *Daemon
	bus      string
	scheme   string
	ingest   string
	store    *engine.ModelStore
	ln       net.Listener          // tcp/unix
	dg       *trace.DatagramReader // udp
	loopDone chan struct{}

	mu       sync.Mutex
	spec     controlapi.BusSpec
	state    controlapi.BusState
	stopping bool
	sessions int
	done     int
	aborted  int
	lastErr  string
	sess     *engine.Session
	feed     io.Closer
}

// startBus loads the bus's model into the fleet, binds the listener
// and starts the accept loop. The spec is assumed validated.
func (d *Daemon) startBus(spec controlapi.BusSpec) (*busRun, error) {
	scheme, addr, err := controlapi.ParseListen(spec.Listen)
	if err != nil {
		return nil, err
	}
	store, err := d.fleet.LoadModel(spec.Bus, d.resolvePath(spec.Model))
	if err != nil {
		return nil, err
	}
	b := &busRun{
		d: d, bus: spec.Bus, scheme: scheme, store: store,
		spec: spec, state: controlapi.BusWaiting, loopDone: make(chan struct{}),
	}
	switch scheme {
	case controlapi.SchemeUDP:
		var pc net.PacketConn
		if pc, err = net.ListenPacket("udp", addr); err == nil {
			b.dg = trace.NewDatagramReader(pc)
			b.ingest = pc.LocalAddr().String()
		}
	case controlapi.SchemeUnix:
		cleanStaleSocket(addr)
		if b.ln, err = net.Listen("unix", addr); err == nil {
			b.ingest = addr
		}
	default:
		if b.ln, err = net.Listen("tcp", addr); err == nil {
			b.ingest = b.ln.Addr().String()
		}
	}
	if err != nil {
		d.fleet.Detach(spec.Bus)
		return nil, err
	}
	go b.loop()
	return b, nil
}

// cleanStaleSocket removes a unix socket file left behind by a dead
// daemon — but only when nothing answers on it.
func cleanStaleSocket(path string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	if conn, err := net.DialTimeout("unix", path, 100*time.Millisecond); err == nil {
		conn.Close() // something is live on it; let Listen fail loudly
		return
	}
	_ = os.Remove(path)
}

// loop accepts feeds one at a time (tcp/unix) or serves the single
// datagram stream (udp) until the bus stops.
func (b *busRun) loop() {
	defer close(b.loopDone)
	if b.dg != nil {
		b.serveStream("udp:"+b.ingest, b.dg, b.dg.Gaps)
		return
	}
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed: detach or drain
		}
		name := b.scheme + ":" + b.ingest
		if ra := conn.RemoteAddr(); ra != nil && ra.String() != "" {
			name = b.scheme + ":" + ra.String()
		}
		b.serveStream(name, conn, nil)
	}
}

// serveStream runs one feed as a fleet member until the feed ends
// (EOF, error, or a stop at the next record boundary).
func (b *busRun) serveStream(name string, rc io.ReadCloser, gaps func() trace.GapStats) {
	src, err := engine.NewStreamSource(name, rc)
	if err != nil {
		b.mu.Lock()
		stopping := b.stopping
		if !stopping {
			b.lastErr = err.Error()
		}
		b.mu.Unlock()
		if !stopping {
			b.d.logf("bus %s: feed %s rejected: %v", b.bus, name, err)
		}
		return
	}
	if gaps != nil {
		src.SetGapStats(gaps)
	}
	b.mu.Lock()
	if b.stopping {
		b.mu.Unlock()
		src.Close()
		return
	}
	// Attach under the bus lock, so a concurrent stop either sees the
	// member (and stops it) or is seen above.
	sess, err := b.d.fleet.Attach(b.bus, src, b.memberOptions(b.spec)...)
	if err != nil {
		b.lastErr = err.Error()
		b.mu.Unlock()
		_ = src.Close()
		b.d.logf("bus %s: feed %s rejected: %v", b.bus, name, err)
		return
	}
	b.sessions++
	b.sess = sess
	b.feed = rc
	b.state = controlapi.BusStreaming
	b.mu.Unlock()
	b.d.logf("bus %s: feed %s streaming", b.bus, name)

	sum, err := sess.Run(nil)

	b.mu.Lock()
	b.feed = nil
	b.done++
	if !b.stopping {
		b.state = controlapi.BusWaiting
	}
	var abort *engine.AbortError
	if err != nil {
		b.lastErr = err.Error()
		if errors.As(err, &abort) {
			b.aborted++
		}
	}
	b.mu.Unlock()
	if err != nil {
		b.d.logf("bus %s: feed %s ended with error: %v", b.bus, name, err)
	} else {
		b.d.logf("bus %s: feed %s done: %d records in %.2fs",
			b.bus, name, sum.Stats.RecordsOut, sum.Stats.WallTime.Seconds())
	}
}

// memberOptions translates the bus spec into the fleet member's
// options; everything else (pool, event outlet, model) is the fleet's.
func (b *busRun) memberOptions(spec controlapi.BusSpec) []engine.Option {
	var opts []engine.Option
	// UDP loss surfaces as stream corruption; recovery is mandatory
	// there (validation enforces it on the spec too).
	if spec.Recover || b.dg != nil {
		opts = append(opts, engine.WithRecovery(true))
	}
	if spec.Quarantine {
		opts = append(opts, engine.WithQuarantineConfig(ids.QuarantineConfig{
			SuspectAfter: spec.QuarantineSuspectAfter,
			DegradeAfter: spec.QuarantineDegradeAfter,
			RecoverAfter: spec.QuarantineRecoverAfter,
		}))
	}
	if spec.Drift {
		opts = append(opts, engine.WithDrift(true))
	}
	if spec.StallTimeout != "" {
		if dur, err := time.ParseDuration(spec.StallTimeout); err == nil && dur > 0 {
			opts = append(opts, engine.WithStallTimeout(dur))
		}
	}
	if dir := b.d.flightDir(spec); dir != "" {
		window := spec.FlightWindow
		if window <= 0 {
			window = 8
		}
		opts = append(opts, engine.WithFlightRecorder(dir, window))
	}
	return opts
}

// flightDir is the bus's bundle directory ("" when the recorder is
// off).
func (d *Daemon) flightDir(spec controlapi.BusSpec) string {
	if spec.FlightDir == "" {
		return ""
	}
	return filepath.Join(d.resolvePath(spec.FlightDir), spec.Bus)
}

// flightDir is the bus's current bundle directory.
func (b *busRun) flightDir() string {
	b.mu.Lock()
	spec := b.spec
	b.mu.Unlock()
	return b.d.flightDir(spec)
}

// drain is stop + wait: the detach path.
func (b *busRun) drain(timeout time.Duration) {
	b.stop()
	b.waitDone(timeout)
}

// stop closes the listener and detaches the bus from the fleet: the
// live member drains at its next record boundary and the bus's model
// is released.
func (b *busRun) stop() {
	b.mu.Lock()
	b.stopping = true
	b.state = controlapi.BusDetached
	ln, dg := b.ln, b.dg
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	b.d.fleet.Detach(b.bus)
	if dg != nil {
		// Unblocks a read waiting for the next datagram; a session
		// mid-record drains through the recovery path.
		dg.Close()
	}
}

// waitDone waits for the accept loop (and with it the live session)
// to finish, hard-closing the feed when the timeout expires.
func (b *busRun) waitDone(timeout time.Duration) {
	if timeout < 0 {
		timeout = 0
	}
	select {
	case <-b.loopDone:
		return
	case <-time.After(timeout):
	}
	b.mu.Lock()
	feed := b.feed
	b.mu.Unlock()
	if feed != nil {
		b.d.logf("bus %s: drain timeout, closing feed", b.bus)
		feed.Close()
	}
	select {
	case <-b.loopDone:
	case <-time.After(2 * time.Second):
		b.d.logf("bus %s: session did not stop after feed close", b.bus)
	}
}

// status builds the bus's control-plane view: registry counters plus
// the tally of the latest member — the live session mid-stream, else
// the last completed one.
func (b *busRun) status() controlapi.BusStatus {
	b.mu.Lock()
	st := controlapi.BusStatus{
		Bus: b.spec.Bus, State: b.state, Listen: b.spec.Listen,
		Ingest: b.scheme + "://" + b.ingest, Model: b.spec.Model,
		ModelVersion: b.store.Version(),
		Sessions:     b.sessions, SessionsDone: b.done, SessionsAborted: b.aborted,
		LastError: b.lastErr, Live: b.feed != nil,
	}
	sess := b.sess
	b.mu.Unlock()
	if sess != nil {
		st.Tally = tallySnapshot(sess)
	}
	return st
}

// tallySnapshot exports a member's verdict accounting: its tally's
// counters and per-SA rows, plus the stream-level counts of its
// summary.
func tallySnapshot(sess *engine.Session) *controlapi.TallySnapshot {
	c, rows := sess.ReadTally()
	frames := 0
	for _, r := range rows {
		frames += r.Frames
	}
	sum := sess.Snapshot()
	return &controlapi.TallySnapshot{
		Frames: frames, VoltAlarms: c.VoltAlarms, PreprocFailed: c.PreprocFailed,
		PeriodAlarms: c.PeriodAlarms, TPErrors: c.TPErrors, Suppressed: c.Suppressed,
		LastAt: c.LastAt, SAs: rows,
		Gaps: sum.Gaps, Corruptions: len(sum.Corruptions), DegradedSAs: sum.DegradedSAs,
	}
}
