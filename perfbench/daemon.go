package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlserver"
	"vprofile/internal/engine"
	"vprofile/internal/obs"
)

// pollInterval is how often the closed loop reads the bus tally to
// stamp verdicts, and how often the load loops wait on daemon state.
const pollInterval = 500 * time.Microsecond

// clock is the benchmark's time base, Unix ns: shared with the sender
// process, and steady enough over a run.
func clock() int64 { return time.Now().UnixNano() }

// daemonRun is one daemon brought up for a workload, plus what its
// set-up cost.
type daemonRun struct {
	d     *controlserver.Daemon
	buses []string
	socks []string
	// setup holds the seconds each repetition of New plus every Attach
	// took; attach the milliseconds of each Attach call.
	setup  []float64
	attach []float64
}

// startDaemon builds the daemon and attaches the workload's buses reps
// times, draining all but the last. Repeating the set-up gives setup_s
// a median instead of a single cold sample.
func startDaemon(w workload, in *inputs, runDir string, reps int) (*daemonRun, error) {
	r := &daemonRun{}
	for b := 0; b < w.buses; b++ {
		r.buses = append(r.buses, fmt.Sprintf("bus%d", b))
		// Relative socket paths keep well under the unix path limit
		// wherever the checkout lives.
		r.socks = append(r.socks, filepath.Join(runDir, fmt.Sprintf("b%d.sock", b)))
	}
	for i := 0; i < reps; i++ {
		// Each repetition starts from a collected heap, as a daemon
		// starting up does, so no repetition pays for the garbage of
		// input generation or of the repetition before it.
		runtime.GC()
		t0 := time.Now()
		d, err := controlserver.New(controlserver.Config{})
		if err != nil {
			return nil, err
		}
		for b, bus := range r.buses {
			a0 := time.Now()
			if _, err := d.Attach(w.spec(bus, r.socks[b], in.modelPath)); err != nil {
				d.Drain(5 * time.Second)
				return nil, fmt.Errorf("attach %s: %w", bus, err)
			}
			r.attach = append(r.attach, time.Since(a0).Seconds()*1e3)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i < reps-1 {
			if code := d.Drain(5 * time.Second); code != 0 {
				return nil, fmt.Errorf("idle drain exited %d", code)
			}
			continue
		}
		r.d = d
	}
	return r, nil
}

// waitBus polls a bus's status until ok accepts it.
func waitBus(d *controlserver.Daemon, bus string, timeout time.Duration, ok func(controlapi.BusStatus) bool) (controlapi.BusStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := d.BusStatus(bus)
		if err != nil {
			return st, err
		}
		if ok(st) {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("bus %s: timed out in state %s (sessions %d done %d)", bus, st.State, st.Sessions, st.SessionsDone)
		}
		time.Sleep(pollInterval)
	}
}

// tallyMatches compares a bus's final tally with the reference replay,
// counter for counter and row for row.
func tallyMatches(got *controlapi.TallySnapshot, want *engine.Tally) error {
	if got == nil {
		return errors.New("no tally")
	}
	if got.Frames != want.Frames() || got.VoltAlarms != want.VoltAlarms || got.PreprocFailed != want.PreprocFailed ||
		got.PeriodAlarms != want.PeriodAlarms || got.TPErrors != want.TPErrors || got.Suppressed != want.Suppressed ||
		got.LastAt != want.LastAt {
		return fmt.Errorf("tally counters differ: daemon frames %d volt %d preproc %d period %d tp %d supp %d, reference frames %d volt %d preproc %d period %d tp %d supp %d",
			got.Frames, got.VoltAlarms, got.PreprocFailed, got.PeriodAlarms, got.TPErrors, got.Suppressed,
			want.Frames(), want.VoltAlarms, want.PreprocFailed, want.PeriodAlarms, want.TPErrors, want.Suppressed)
	}
	if !reflect.DeepEqual(got.SAs, want.Rows()) {
		return errors.New("per-SA tally rows differ from the reference")
	}
	return nil
}

// loadResult is what one timed load reports.
type loadResult struct {
	sent    int64 // frames written to the daemon, warm-up included
	timed   int64 // frames written in the timed window
	failed  int64 // frames with no verdict, or on a bus whose tally differs from the reference
	wall    time.Duration
	usage   usage         // the whole window
	windows []window      // the window in slices, for medians
	samples int           // verdict latency samples behind the percentiles
	lagP99  time.Duration // open loop: how late the sender ran
	// problems are the correctness failures; any makes the run incorrect.
	problems []string

	// Event-path observations (open loop).
	dropped      uint64
	tpr, fpr     float64
	polls        int
	pollNS       int64
	polledEvents int
}

// window is one slice of the timed window: a pass of the closed loop,
// an interval of the open loop.
type window struct {
	frames int64
	dur    time.Duration
	use    usage
	// lat50 and lat99 are the slice's own verdict latency percentiles.
	lat50, lat99 int64
}

// stealShare is the share of the machine's CPU ticks the hypervisor
// stole during the window.
func (w window) stealShare() float64 {
	if w.use.ticks == 0 {
		return 0
	}
	return float64(w.use.steal) / float64(w.use.ticks)
}

// medianOf is the median of f over the quieter half of the windows:
// those whose steal share is at most the run's median. Host
// interference only ever slows the daemon, and on a shared machine it
// comes in bursts the hypervisor's steal counter sees; a window it
// hit measures the neighbours, not the program.
func (r *loadResult) medianOf(f func(window) float64) float64 {
	var shares []float64
	for _, w := range r.windows {
		if w.frames > 0 {
			shares = append(shares, w.stealShare())
		}
	}
	limit := median(shares)
	var xs []float64
	for _, w := range r.windows {
		if w.frames > 0 && w.stealShare() <= limit {
			xs = append(xs, f(w))
		}
	}
	return median(xs)
}

// runReplay is the closed loop: the capture is streamed over the bus's
// unix socket as fast as the socket accepts, one connection (so one
// engine session) per pass, until the run time is used up. Each pass is
// checked against the reference. A frame's verdict latency runs from
// the write that handed its last byte to the kernel until its verdict:
// the tally counts it between two polls, and the verdict is placed
// midway between the later of the earlier poll and the send, and the
// poll that saw it. (At saturation the poller itself waits for a P, so
// the poll that sees a verdict can trail it by a batch's worth of
// work.) The capture is written by the sender process (see
// startSender).
func runReplay(r *daemonRun, in *inputs, ref *reference, dur time.Duration) (*loadResult, error) {
	bus := r.buses[0]
	n := in.records()
	sent := make([]int64, n)
	// seenLo and seenHi bracket each frame's verdict: the poll before
	// the one that first counted it, and that poll.
	seenLo := make([]int64, n)
	seenHi := make([]int64, n)
	lat := make([]int64, n)
	res := &loadResult{}

	// The poller owns seenLo and seenHi; the sender hands it each pass
	// through pass and learns the pass finished through done.
	var mu sync.Mutex
	pass := -1
	counted := 0
	done := make(chan controlapi.BusStatus, 1)
	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		signalled := -1
		last := clock()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			st, err := r.d.BusStatus(bus)
			prev, now := last, clock()
			last = now
			if err != nil || st.Tally == nil {
				continue
			}
			mu.Lock()
			p := pass
			if p >= 0 && st.Sessions == p+1 {
				for counted < st.Tally.Frames && counted < n {
					seenLo[counted], seenHi[counted] = prev, now
					counted++
				}
			}
			mu.Unlock()
			if p >= 0 && st.SessionsDone >= p+1 && signalled < p {
				signalled = p
				done <- st
			}
		}
	}()
	defer func() {
		close(stop)
		<-pollerDone
	}()

	snd, err := startSender(in, r.socks[:1], 0)
	if err != nil {
		return nil, err
	}
	defer snd.kill()
	var before usage
	var start, deadline int64
	// Pass 0 warms the heap, pools and caches and is checked but not
	// timed.
	for p := 0; ; p++ {
		if p == 1 {
			before, start = readUsage(), clock()
			deadline = start + int64(dur)
		} else if p > 1 && clock() >= deadline {
			break
		}
		t0, u0 := clock(), readUsage()
		mu.Lock()
		pass, counted = p, 0
		mu.Unlock()
		rep, err := snd.pass()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		rec := 0
		for k, end := range rep.Ends {
			for rec < n && in.recEnd[rec] <= end {
				sent[rec] = rep.Times[k]
				rec++
			}
		}
		if rec != n {
			return nil, fmt.Errorf("pass %d: sender wrote %d of %d records", p, rec, n)
		}
		var st controlapi.BusStatus
		select {
		case st = <-done:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("pass %d: bus %s never finished its session", p, bus)
		}
		now := clock()
		mu.Lock()
		for ; counted < n; counted++ {
			seenLo[counted], seenHi[counted] = now, now
		}
		mu.Unlock()
		use := readUsage().sub(u0)
		if err := tallyMatches(st.Tally, ref.tally); err != nil || st.SessionsAborted != 0 {
			res.failed += int64(n)
			res.problems = append(res.problems, fmt.Sprintf("pass %d: %v (aborted sessions %d, last error %q)", p, err, st.SessionsAborted, st.LastError))
		}
		if p == 0 {
			continue
		}
		for i := range sent {
			lat[i] = (max(seenLo[i], sent[i])+seenHi[i])/2 - sent[i]
		}
		res.samples += n
		res.windows = append(res.windows, window{
			frames: int64(n), dur: time.Duration(now - t0), use: use,
			lat50: percentile(lat, 50), lat99: percentile(lat, 99),
		})
		res.sent += int64(n)
		res.timed += int64(n)
	}
	res.sent += int64(n) // the warm-up pass
	res.wall = time.Duration(clock() - start)
	if err := snd.finish(); err != nil {
		return nil, err
	}
	if len(res.windows) == 0 {
		return nil, errors.New("no timed pass")
	}
	res.usage = readUsage().sub(before)
	return res, nil
}

// streamAll writes data to the unix socket as one feed and closes it.
func streamAll(sock string, data []byte) error {
	conn, err := net.Dial("unix", sock)
	if err != nil {
		return err
	}
	if _, err := conn.Write(data); err != nil {
		conn.Close()
		return err
	}
	return conn.Close()
}

// liveInterval is the open loop's window: at about 650 alarms a second
// it holds over a thousand latency samples, enough for a p99 with ten
// beyond it.
const liveInterval = 2 * time.Second

// runLive is the open loop: every bus gets the whole capture on its
// own connection from one sender process (see startSender), which
// writes all connections in due-time order. The send schedule is the
// generator's own timestamps compressed to the target rate, so capture
// timestamps (and with them every verdict) are independent of the
// rate. One goroutine long-polls Daemon.Events; an alarm's latency
// runs from its frame's due time until the Events call that returned
// it. Times are Unix ns, shared with the sender process.
func runLive(r *daemonRun, in *inputs, ref *reference, rate float64) (*loadResult, error) {
	n := in.records()
	nb := len(r.buses)
	res := &loadResult{}

	busIdx := map[string]int{}
	for b, bus := range r.buses {
		busIdx[bus] = b
	}
	alarmAt := make([][]int64, nb)
	for b := range alarmAt {
		alarmAt[b] = make([]int64, n)
	}
	// Events before boundary belong to the warm-up; until the warm-up
	// is over every event does.
	var boundary atomic.Uint64
	boundary.Store(math.MaxUint64)
	stopEvents := make(chan struct{})
	eventsDone := make(chan struct{})
	var unmatched []string
	go func() {
		defer close(eventsDone)
		var cursor uint64
		take := func(resp controlapi.EventsResponse, at int64) {
			if cursor >= boundary.Load() {
				res.dropped += resp.Dropped
			}
			cursor = resp.Next
			for _, e := range resp.Events {
				if e.Seq < boundary.Load() || e.Kind != obs.EventVoltage && e.Kind != obs.EventPreprocess {
					continue
				}
				b, ok := busIdx[e.Bus]
				i, found := in.byTime[math.Float64bits(e.TimeSec)]
				if !ok || !found || alarmAt[b][i] != 0 {
					unmatched = append(unmatched, fmt.Sprintf("%s@%g", e.Bus, e.TimeSec))
					continue
				}
				alarmAt[b][i] = at
			}
		}
		for {
			t0 := time.Now()
			resp := r.d.Events(cursor, 1000, 0)
			if len(resp.Events) > 0 {
				res.polls++
				res.pollNS += int64(time.Since(t0))
				res.polledEvents += len(resp.Events)
				take(resp, clock())
				continue
			}
			select {
			case <-stopEvents:
				return
			default:
			}
			resp = r.d.Events(cursor, 1000, 20*time.Millisecond)
			take(resp, clock())
		}
	}()
	stopPoller := func() {
		close(stopEvents)
		<-eventsDone
	}

	// Warm-up: every bus gets the capture once, as fast as the socket
	// accepts, on a session of its own. It publishes more events than
	// the hub holds, so the timed window sees the ring a long-running
	// daemon has: full, and rotating on every publish.
	for b, sock := range r.socks {
		if err := streamAll(sock, in.capture); err != nil {
			stopPoller()
			return nil, fmt.Errorf("warm-up %s: %w", r.buses[b], err)
		}
	}
	for _, bus := range r.buses {
		st, err := waitBus(r.d, bus, 30*time.Second, func(st controlapi.BusStatus) bool { return st.SessionsDone >= 1 })
		if err != nil {
			stopPoller()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		res.sent += int64(n)
		if err := tallyMatches(st.Tally, ref.tally); err != nil {
			res.failed += int64(n)
			res.problems = append(res.problems, fmt.Sprintf("%s warm-up: %v", bus, err))
		}
	}
	boundary.Store(r.d.Events(math.MaxUint64, 1, 0).Next)

	snd, err := startSender(in, r.socks, rate)
	if err != nil {
		stopPoller()
		return nil, err
	}
	for _, bus := range r.buses {
		if _, err := waitBus(r.d, bus, 10*time.Second, func(st controlapi.BusStatus) bool { return st.Live && st.Sessions == 2 }); err != nil {
			snd.kill()
			stopPoller()
			return nil, err
		}
	}
	start := clock() + int64(50*time.Millisecond)

	// The sampler reads the process counters at every interval
	// boundary of the schedule.
	type sample struct {
		at  int64
		use usage
	}
	var samples []sample
	interval := int64(liveInterval)
	if span := int64(float64(n) / rate * 1e9); span < 2*interval {
		interval = span / 2 // short runs still get two windows
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for at := start; ; at += interval {
			select {
			case <-stopSampler:
				return
			case <-time.After(time.Duration(at - clock())):
			}
			samples = append(samples, sample{at, readUsage()})
		}
	}()

	rep, err := snd.run(start)
	finals := make([]controlapi.BusStatus, nb)
	for b, bus := range r.buses {
		if err != nil {
			break
		}
		finals[b], err = waitBus(r.d, bus, 30*time.Second, func(st controlapi.BusStatus) bool { return st.SessionsDone >= 2 })
	}
	end := clock()
	close(stopSampler)
	<-samplerDone
	// Every event is published before its session ends, so one empty
	// poll after this point means the poller has read them all.
	stopPoller()
	if err != nil {
		return nil, err
	}
	if len(samples) < 2 {
		return nil, errors.New("run too short for one sampling interval")
	}

	res.sent += int64(nb * n)
	res.timed = int64(nb * n)
	res.wall = time.Duration(end - start)
	res.usage = samples[len(samples)-1].use.sub(samples[0].use)
	res.lagP99 = time.Duration(rep.LagP99NS)
	for k := 1; k < len(samples); k++ {
		lo, hi := samples[k-1].at, samples[k].at
		w := window{dur: time.Duration(hi - lo), use: samples[k].use.sub(samples[k-1].use)}
		var lat []int64
		for b := 0; b < nb; b++ {
			for i := 0; i < n; i++ {
				if t := in.due(start, b, nb, i, rate); t >= lo && t < hi {
					w.frames++
					if at := alarmAt[b][i]; at != 0 {
						lat = append(lat, at-t)
					}
				}
			}
		}
		w.lat50, w.lat99 = percentile(lat, 50), percentile(lat, 99)
		res.windows = append(res.windows, w)
	}
	for _, u := range unmatched {
		res.problems = append(res.problems, "event matches no frame of its bus, or repeats one: "+u)
	}
	refTPR, refFPR := in.rates(ref.alarms)
	for b, bus := range r.buses {
		st := finals[b]
		alarms := make([]bool, n)
		for i, at := range alarmAt[b] {
			alarms[i] = at != 0
			if at != 0 {
				res.samples++
			}
		}
		bad := tallyMatches(st.Tally, ref.tally)
		if bad == nil && st.SessionsAborted != 0 {
			bad = fmt.Errorf("session aborted: %s", st.LastError)
		}
		if bad == nil && !reflect.DeepEqual(alarms, ref.alarms) && res.dropped == 0 {
			bad = errors.New("alarm events differ from the reference verdicts")
		}
		if bad != nil {
			res.failed += int64(n)
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", bus, bad))
		}
		tpr, fpr := in.rates(alarms)
		if tpr != refTPR || fpr != refFPR {
			res.problems = append(res.problems, fmt.Sprintf("%s: tpr/fpr %.6f/%.6f, reference %.6f/%.6f", bus, tpr, fpr, refTPR, refFPR))
		}
		if b == 0 {
			res.tpr, res.fpr = tpr, fpr
		}
	}
	if res.dropped != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d alarm events rotated out of the hub before they were read", res.dropped))
	}
	if rep.Frames != nb*n {
		res.problems = append(res.problems, fmt.Sprintf("sender wrote %d of %d frames", rep.Frames, nb*n))
	}
	return res, nil
}
