// Package controlapi defines the wire types and endpoint paths of the
// vprofiled control API. It is the contract between controlserver
// (the daemon side) and controlclient (the CLI side): pure data, JSON
// tags, no behaviour — so a client build does not drag the engine in,
// and the two halves can only drift apart by changing this package.
package controlapi

import (
	"fmt"
	"strings"

	"vprofile/internal/engine"
	"vprofile/internal/obs"
	"vprofile/internal/trace"
)

// Endpoint paths. All bodies are JSON; errors come back as an Error
// envelope with a non-2xx status.
const (
	PathStatus = "/v1/status" // GET  → StatusResponse
	PathBus    = "/v1/bus"    // GET ?bus= → BusStatus
	PathAttach = "/v1/attach" // POST BusSpec → BusStatus
	PathDetach = "/v1/detach" // POST DetachRequest → BusStatus
	PathSwap   = "/v1/swap"   // POST SwapRequest → SwapResponse
	PathReload = "/v1/reload" // POST → ReloadResponse
	PathEvents = "/v1/events" // GET ?after=&max=&wait= → EventsResponse
	PathFlight = "/v1/flight" // GET ?bus=[&bundle=&file=] → FlightList | raw file
	PathHealth = "/healthz"   // GET → 200 "ok"
)

// Error is the JSON error envelope.
type Error struct {
	Error string `json:"error"`
}

// BusSpec declares one monitored bus: where its feed listens and how
// its session is configured. It is both the YAML fleet-policy bus
// entry (after defaults merge) and the attach request body.
type BusSpec struct {
	// Bus is the bus name — result/event/metric label and API key.
	Bus string `json:"bus"`
	// Listen is the ingest endpoint the daemon accepts the feed on:
	// "tcp://host:port", "unix:///path.sock" or "udp://host:port".
	Listen string `json:"listen"`
	// Model is the detection model path (resolved against the policy
	// file's directory when relative).
	Model string `json:"model"`

	Recover bool `json:"recover,omitempty"`

	Quarantine bool `json:"quarantine,omitempty"`
	// Quarantine thresholds; zero takes the engine defaults.
	QuarantineSuspectAfter int `json:"quarantine_suspect_after,omitempty"`
	QuarantineDegradeAfter int `json:"quarantine_degrade_after,omitempty"`
	QuarantineRecoverAfter int `json:"quarantine_recover_after,omitempty"`

	Drift bool `json:"drift,omitempty"`
	// StallTimeout arms the slow-sink watchdog, as a Go duration
	// string ("30s"); empty disables.
	StallTimeout string `json:"stall_timeout,omitempty"`

	// FlightDir enables the flight recorder, writing forensic bundles
	// under dir/<bus>/; FlightWindow is the pre/post context in frames
	// (0 = engine default).
	FlightDir    string `json:"flight_dir,omitempty"`
	FlightWindow int    `json:"flight_window,omitempty"`
}

// SchemeTCP, SchemeUnix and SchemeUDP are the ingest transports.
const (
	SchemeTCP  = "tcp"
	SchemeUnix = "unix"
	SchemeUDP  = "udp"
)

// ParseListen splits a listen URL into transport scheme and address.
// It accepts exactly the three ingest schemes.
func ParseListen(s string) (scheme, addr string, err error) {
	scheme, addr, ok := strings.Cut(s, "://")
	if !ok {
		return "", "", fmt.Errorf("%q is not scheme://address", s)
	}
	switch scheme {
	case SchemeTCP, SchemeUDP:
		if !strings.Contains(addr, ":") {
			return "", "", fmt.Errorf("%s address %q needs host:port", scheme, addr)
		}
	case SchemeUnix:
		if addr == "" {
			return "", "", fmt.Errorf("unix listener needs a socket path")
		}
	default:
		return "", "", fmt.Errorf("unsupported scheme %q (tcp, unix, udp)", scheme)
	}
	return scheme, addr, nil
}

// BusState is a bus's ingest lifecycle state.
type BusState string

const (
	// BusWaiting: listener up, no feed connected.
	BusWaiting BusState = "waiting"
	// BusStreaming: a feed is connected and records are flowing.
	BusStreaming BusState = "streaming"
	// BusDetached: the bus has been detached; terminal.
	BusDetached BusState = "detached"
)

// TallySnapshot is a bus's verdict accounting: the summary counters
// plus the per-SA table of the session's engine.Tally — the same
// tally every replay tool runs, so a batch replay of the same capture
// (vprofile detect's summary and per-SA table) reports the same numbers, and
// stream-vs-batch determinism is asserted against this.
type TallySnapshot struct {
	Frames        int               `json:"frames"`
	VoltAlarms    int               `json:"volt_alarms"`
	PreprocFailed int               `json:"preproc_failed"`
	PeriodAlarms  int               `json:"period_alarms"`
	TPErrors      int               `json:"tp_errors"`
	Suppressed    int               `json:"suppressed"`
	LastAt        float64           `json:"last_at"`
	SAs           []engine.TallyRow `json:"sas,omitempty"`
	Gaps          *trace.GapStats   `json:"gaps,omitempty"`
	Corruptions   int               `json:"corruptions"`
	DegradedSAs   int               `json:"degraded_sas"`
}

// BusStatus is one bus's full control-plane view.
type BusStatus struct {
	Bus    string   `json:"bus"`
	State  BusState `json:"state"`
	Listen string   `json:"listen"`
	// Ingest is the resolved feed address (useful when Listen bound
	// port 0).
	Ingest string `json:"ingest"`
	Model  string `json:"model"`
	// ModelVersion is the store's current hot-swap generation.
	ModelVersion int `json:"model_version"`
	// Sessions counts feeds served so far (including the live one);
	// SessionsDone counts completed ones, SessionsAborted those that
	// died mid-stream.
	Sessions        int    `json:"sessions"`
	SessionsDone    int    `json:"sessions_done"`
	SessionsAborted int    `json:"sessions_aborted"`
	LastError       string `json:"last_error,omitempty"`
	// Live is true while a feed is streaming; Tally then reflects the
	// in-flight session (mid-stream snapshot), otherwise the last
	// completed one.
	Live  bool           `json:"live"`
	Tally *TallySnapshot `json:"tally,omitempty"`
}

// StatusResponse is the daemon-wide view.
type StatusResponse struct {
	// PolicyPath is the loaded fleet policy file ("" when the daemon
	// runs without one); PolicyGen counts applied policies (1 = the
	// one loaded at startup).
	PolicyPath string      `json:"policy_path,omitempty"`
	PolicyGen  int         `json:"policy_gen"`
	Draining   bool        `json:"draining"`
	Buses      []BusStatus `json:"buses"`
}

// DetachRequest asks the daemon to stop a bus. Drain waits for the
// live session to flush before returning.
type DetachRequest struct {
	Bus string `json:"bus"`
}

// SwapRequest hot-swaps one bus's model mid-stream.
type SwapRequest struct {
	Bus   string `json:"bus"`
	Model string `json:"model"`
}

// SwapResponse reports the store generation after the swap.
type SwapResponse struct {
	Bus     string `json:"bus"`
	Model   string `json:"model"`
	Version int    `json:"version"`
}

// ReloadResponse is the hot-reload diff: which buses were added,
// removed, model-swapped in place, restarted (listener or session
// config changed), or left untouched.
type ReloadResponse struct {
	PolicyGen int      `json:"policy_gen"`
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
	Swapped   []string `json:"swapped,omitempty"`
	Restarted []string `json:"restarted,omitempty"`
	Unchanged []string `json:"unchanged,omitempty"`
}

// EventRecord is one alarm/incident event with its position in the
// daemon's event sequence — the long-poll cursor.
type EventRecord struct {
	Seq uint64 `json:"seq"`
	obs.Event
}

// EventsResponse is one page of the event subscription. Next is the
// cursor to pass as ?after= on the following poll; Dropped counts
// events that aged out of the ring before this client saw them.
type EventsResponse struct {
	Events  []EventRecord `json:"events"`
	Next    uint64        `json:"next"`
	Dropped uint64        `json:"dropped,omitempty"`
}

// FlightBundle describes one forensic bundle available for download.
type FlightBundle struct {
	Bus    string   `json:"bus"`
	Bundle string   `json:"bundle"`
	Files  []string `json:"files"`
}

// FlightList is the flight-bundle index for a bus.
type FlightList struct {
	Bus     string         `json:"bus"`
	Bundles []FlightBundle `json:"bundles"`
}
