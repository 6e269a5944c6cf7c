// Package control implements the vprofiled fleet policy: a
// declarative YAML description of which buses the daemon monitors,
// how each bus's session is configured, and where alarms go. Parsing
// is strict — unknown keys, bad values and missing model files are
// rejected with file:line field-path errors — because the policy is
// the daemon's entire configuration surface and a silently ignored
// typo is a bus that never gets monitored.
package control

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vprofile/internal/control/controlapi"
)

// Policy is one parsed and validated fleet policy.
type Policy struct {
	// Path is the file the policy was loaded from ("" for in-memory
	// policies); Dir anchors relative model paths.
	Path string
	Dir  string

	// Control is the daemon's control-API listen address
	// ("host:port"); empty defers to the -control flag.
	Control string

	// Alarms routes the daemon-wide alarm stream.
	Alarms AlarmPolicy

	// Buses, in file order.
	Buses []controlapi.BusSpec
}

// AlarmPolicy configures alarm routing: an optional JSONL event-log
// mirror on disk, and the size of the in-memory ring the control
// API's event subscription reads from.
type AlarmPolicy struct {
	// Events is a JSONL file every published event is appended to
	// ("" disables the mirror).
	Events string
	// Buffer is the event-ring capacity (0 = DefaultEventBuffer).
	Buffer int
}

// DefaultEventBuffer is the alarm ring capacity when the policy
// leaves it unset: enough that a tailing client several seconds
// behind a noisy bus still misses nothing.
const DefaultEventBuffer = 4096

// Bus returns the spec for name, or nil.
func (p *Policy) Bus(name string) *controlapi.BusSpec {
	for i := range p.Buses {
		if p.Buses[i].Bus == name {
			return &p.Buses[i]
		}
	}
	return nil
}

// errs collects field-path validation errors for one policy load so
// an operator sees every problem in one pass, not one per run.
type errs struct {
	file string
	list []error
}

func (e *errs) add(line int, path, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if line > 0 {
		e.list = append(e.list, fmt.Errorf("%s:%d: %s: %s", e.file, line, path, msg))
	} else {
		e.list = append(e.list, fmt.Errorf("%s: %s: %s", e.file, path, msg))
	}
}

func (e *errs) err() error { return errors.Join(e.list...) }

// LoadPolicy reads, parses and validates a policy file. Model paths
// are checked for existence (relative to the policy file's
// directory) — a daemon must not come up half-configured.
func LoadPolicy(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := ParsePolicy(path, data)
	if err != nil {
		return nil, err
	}
	p.Path = path
	return p, nil
}

// ParsePolicy parses and validates policy text. name tags errors
// (usually the file path); relative model paths resolve against its
// directory.
func ParsePolicy(name string, data []byte) (*Policy, error) {
	root, err := parseYAML(name, data)
	if err != nil {
		return nil, err
	}
	p := &Policy{Path: name, Dir: filepath.Dir(name)}
	e := &errs{file: name}

	known := map[string]bool{"control": true, "defaults": true, "alarms": true, "buses": true}
	for _, k := range root.keys {
		if !known[k] {
			e.add(root.children[k].line, k, "unknown key (control, defaults, alarms, buses)")
		}
	}

	p.Control = bindString(e, root.child("control"), "control")

	if a := root.child("alarms"); a != nil {
		if a.isScalar {
			e.add(a.line, "alarms", "expected a map (events, buffer)")
		} else {
			for _, k := range a.keys {
				switch k {
				case "events":
					p.Alarms.Events = bindString(e, a.child(k), "alarms.events")
				case "buffer":
					p.Alarms.Buffer = bindInt(e, a.child(k), "alarms.buffer")
				default:
					e.add(a.children[k].line, "alarms."+k, "unknown key (events, buffer)")
				}
			}
		}
	}
	if p.Alarms.Buffer < 0 {
		e.add(0, "alarms.buffer", "must be >= 0, got %d", p.Alarms.Buffer)
	}

	var defaults controlapi.BusSpec
	var defaultKeys map[string]bool
	if d := root.child("defaults"); d != nil {
		if d.isScalar {
			e.add(d.line, "defaults", "expected a map of bus settings")
		} else {
			defaultKeys = map[string]bool{}
			bindBusSettings(e, d, "defaults", &defaults, defaultKeys)
		}
	}

	buses := root.child("buses")
	if buses == nil || len(buses.keys) == 0 {
		e.add(root.line, "buses", "at least one bus is required")
	} else if buses.isScalar {
		e.add(buses.line, "buses", "expected a map of bus name -> settings")
	} else {
		for _, busName := range buses.keys {
			bn := buses.children[busName]
			path := "buses." + busName
			if err := validBusName(busName); err != nil {
				e.add(bn.line, path, "%v", err)
			}
			if bn.isScalar {
				e.add(bn.line, path, "expected a map of bus settings")
				continue
			}
			spec := defaults // start from defaults, overridden per key
			spec.Bus = busName
			seen := map[string]bool{}
			bindBusSettings(e, bn, path, &spec, seen)
			if !seen["listen"] && spec.Listen == "" {
				e.add(bn.line, path+".listen", "required (tcp://host:port, unix:///path.sock or udp://host:port)")
			}
			if !seen["model"] && spec.Model == "" {
				e.add(bn.line, path+".model", "required")
			}
			validateSpec(e, bn.line, path, &spec, p.Dir)
			p.Buses = append(p.Buses, spec)
		}
	}
	// Duplicate listen addresses cannot both bind; catch it at
	// validation time.
	byListen := map[string]string{}
	for _, b := range p.Buses {
		if b.Listen == "" {
			continue
		}
		if prev, dup := byListen[b.Listen]; dup {
			e.add(0, "buses."+b.Bus+".listen", "duplicate listen address %q (also used by buses.%s)", b.Listen, prev)
		}
		byListen[b.Listen] = b.Bus
	}
	if err := e.err(); err != nil {
		return nil, err
	}
	return p, nil
}

// busSettingKeys is the per-bus (and defaults) key set.
var busSettingKeys = []string{
	"listen", "model", "recover", "quarantine",
	"drift", "stall_timeout", "flight_dir", "flight_window",
}

// bindBusSettings binds one settings map (a bus entry or the defaults
// block) into spec, recording which keys appeared in seen.
func bindBusSettings(e *errs, n *node, path string, spec *controlapi.BusSpec, seen map[string]bool) {
	for _, k := range n.keys {
		c := n.children[k]
		kp := path + "." + k
		seen[k] = true
		switch k {
		case "listen":
			spec.Listen = bindNonEmptyString(e, c, kp)
		case "model":
			spec.Model = bindNonEmptyString(e, c, kp)
		case "workers":
			// Removed: every bus runs on the daemon fleet's one worker
			// pool, sized by GOMAXPROCS.
			e.add(c.line, kp, "removed: buses share the daemon's worker pool (sized by GOMAXPROCS)")
		case "batch":
			// Removed: a batch is only an upper bound and a live feed
			// ships what has arrived, so no bound buys anything.
			e.add(c.line, kp, "removed: a feed ships what has arrived (the pipeline's batch bound is not configurable)")
		case "recover":
			spec.Recover = bindBool(e, c, kp)
		case "drift":
			spec.Drift = bindBool(e, c, kp)
		case "stall_timeout":
			spec.StallTimeout = bindDuration(e, c, kp)
		case "flight_dir":
			spec.FlightDir = bindString(e, c, kp)
		case "flight_window":
			spec.FlightWindow = bindInt(e, c, kp)
		case "quarantine":
			// Either a bare bool (`quarantine: true`) or a tuning map.
			if c.isScalar {
				spec.Quarantine = bindBool(e, c, kp)
				continue
			}
			spec.Quarantine = true
			for _, qk := range c.keys {
				qc := c.children[qk]
				qp := kp + "." + qk
				switch qk {
				case "suspect_after":
					spec.QuarantineSuspectAfter = bindRangedInt(e, qc, qp, 1, 1<<20)
				case "degrade_after":
					spec.QuarantineDegradeAfter = bindRangedInt(e, qc, qp, 1, 1<<20)
				case "recover_after":
					spec.QuarantineRecoverAfter = bindRangedInt(e, qc, qp, 1, 1<<24)
				default:
					e.add(qc.line, qp, "unknown key (suspect_after, degrade_after, recover_after)")
				}
			}
		default:
			e.add(c.line, kp, "unknown key (%s)", strings.Join(busSettingKeys, ", "))
		}
	}
}

// validBusName keeps bus names safe as metric labels, path segments
// and API keys.
func validBusName(name string) error {
	if name == "" {
		return errors.New("bus name must not be empty")
	}
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.' {
			continue
		}
		return fmt.Errorf("bus name %q may only contain letters, digits, '-', '_' and '.'", name)
	}
	return nil
}

// validateSpec checks one merged bus spec's semantic constraints.
// line anchors errors for constraints that span keys.
func validateSpec(e *errs, line int, path string, spec *controlapi.BusSpec, dir string) {
	scheme := ""
	if spec.Listen != "" {
		var err error
		scheme, _, err = controlapi.ParseListen(spec.Listen)
		if err != nil {
			e.add(line, path+".listen", "%v", err)
		}
	}
	if scheme == controlapi.SchemeUDP && !spec.Recover {
		e.add(line, path+".recover", "udp listeners require recover: true (datagram loss surfaces as stream corruption)")
	}
	if spec.Model != "" {
		mp := spec.Model
		if !filepath.IsAbs(mp) && dir != "" {
			mp = filepath.Join(dir, mp)
		}
		if _, err := os.Stat(mp); err != nil {
			e.add(line, path+".model", "model file %s: %v", spec.Model, errors.Unwrap(err))
		}
	}
	if spec.FlightWindow < 0 {
		e.add(line, path+".flight_window", "must be >= 0, got %d", spec.FlightWindow)
	}
	// 0 means "engine default" for every quarantine threshold; an
	// explicit value must be in range (YAML binding already rejected
	// explicit zeros with a line number, this also covers API attach).
	q := spec
	if q.QuarantineSuspectAfter < 0 || q.QuarantineSuspectAfter > 1<<20 {
		e.add(line, path+".quarantine.suspect_after", "out of range: must be in [1, %d] (0 = default), got %d", 1<<20, q.QuarantineSuspectAfter)
	}
	if q.QuarantineDegradeAfter < 0 || q.QuarantineDegradeAfter > 1<<20 {
		e.add(line, path+".quarantine.degrade_after", "out of range: must be in [1, %d] (0 = default), got %d", 1<<20, q.QuarantineDegradeAfter)
	}
	if q.QuarantineRecoverAfter < 0 || q.QuarantineRecoverAfter > 1<<24 {
		e.add(line, path+".quarantine.recover_after", "out of range: must be in [1, %d] (0 = default), got %d", 1<<24, q.QuarantineRecoverAfter)
	}
	if q.QuarantineSuspectAfter > 0 && q.QuarantineDegradeAfter > 0 &&
		q.QuarantineDegradeAfter <= q.QuarantineSuspectAfter {
		e.add(line, path+".quarantine.degrade_after", "must be > suspect_after (%d), got %d",
			q.QuarantineSuspectAfter, q.QuarantineDegradeAfter)
	}
	if spec.StallTimeout != "" {
		if d, err := time.ParseDuration(spec.StallTimeout); err != nil {
			e.add(line, path+".stall_timeout", "%v", err)
		} else if d < 0 {
			e.add(line, path+".stall_timeout", "must be >= 0, got %s", d)
		}
	}
}

// ValidateSpec checks a single bus spec outside a policy file — the
// control API's attach path. dir anchors relative model paths.
func ValidateSpec(spec *controlapi.BusSpec, dir string) error {
	e := &errs{file: "attach"}
	if err := validBusName(spec.Bus); err != nil {
		e.add(0, "bus", "%v", err)
	}
	if spec.Listen == "" {
		e.add(0, "listen", "required (tcp://host:port, unix:///path.sock or udp://host:port)")
	}
	if spec.Model == "" {
		e.add(0, "model", "required")
	}
	validateSpec(e, 0, "bus "+spec.Bus, spec, dir)
	return e.err()
}

// bind helpers: each reports a typed value or records a field-path
// error and returns the zero value.

func bindString(e *errs, n *node, path string) string {
	if n == nil {
		return ""
	}
	if !n.isScalar {
		e.add(n.line, path, "expected a string value")
		return ""
	}
	return n.scalar
}

// bindNonEmptyString is bindString for keys that cannot be blank: an
// explicit empty value is an error, not an unset key.
func bindNonEmptyString(e *errs, n *node, path string) string {
	v := bindString(e, n, path)
	if n != nil && n.isScalar && v == "" {
		e.add(n.line, path, "must not be empty")
	}
	return v
}

func bindInt(e *errs, n *node, path string) int {
	if n == nil {
		return 0
	}
	if !n.isScalar {
		e.add(n.line, path, "expected an integer value")
		return 0
	}
	v, err := strconv.Atoi(n.scalar)
	if err != nil {
		e.add(n.line, path, "expected an integer, got %q", n.scalar)
		return 0
	}
	return v
}

func bindBool(e *errs, n *node, path string) bool {
	if n == nil {
		return false
	}
	if !n.isScalar {
		e.add(n.line, path, "expected true or false")
		return false
	}
	switch n.scalar {
	case "true":
		return true
	case "false":
		return false
	}
	e.add(n.line, path, "expected true or false, got %q", n.scalar)
	return false
}

// bindRangedInt is bindInt plus an inclusive range check — for keys
// where an explicit value outside [min, max] is a configuration bug.
func bindRangedInt(e *errs, n *node, path string, min, max int) int {
	v := bindInt(e, n, path)
	if n != nil && n.isScalar && (v < min || v > max) {
		e.add(n.line, path, "out of range: must be in [%d, %d], got %d", min, max, v)
	}
	return v
}

func bindDuration(e *errs, n *node, path string) string {
	if n == nil {
		return ""
	}
	if !n.isScalar {
		e.add(n.line, path, "expected a duration (e.g. 30s)")
		return ""
	}
	return n.scalar // range/format checked in validateSpec
}

// Diff classifies every bus across a policy reload. The daemon
// applies it without touching unchanged buses: a model-only change
// hot-swaps through the bus's ModelStore mid-stream (no frames
// dropped), anything else restarts that bus's listener and session.
type Diff struct {
	Added     []string
	Removed   []string
	Swapped   []string // only Model changed
	Restarted []string // other settings changed
	Unchanged []string
}

// DiffPolicies compares old and new bus sets by bus name.
func DiffPolicies(old, new *Policy) Diff {
	var d Diff
	oldBy := map[string]controlapi.BusSpec{}
	if old != nil {
		for _, b := range old.Buses {
			oldBy[b.Bus] = b
		}
	}
	seen := map[string]bool{}
	for _, nb := range new.Buses {
		seen[nb.Bus] = true
		ob, ok := oldBy[nb.Bus]
		if !ok {
			d.Added = append(d.Added, nb.Bus)
			continue
		}
		if ob == nb {
			d.Unchanged = append(d.Unchanged, nb.Bus)
			continue
		}
		// Same spec apart from the model path → hot-swap in place.
		swapped := ob
		swapped.Model = nb.Model
		if swapped == nb {
			d.Swapped = append(d.Swapped, nb.Bus)
		} else {
			d.Restarted = append(d.Restarted, nb.Bus)
		}
	}
	if old != nil {
		for _, ob := range old.Buses {
			if !seen[ob.Bus] {
				d.Removed = append(d.Removed, ob.Bus)
			}
		}
	}
	return d
}
