package controlserver_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"vprofile/internal/control/controlapi"
	"vprofile/internal/control/controlclient"
	"vprofile/internal/control/controlserver"
)

// TestControlAPIEndToEnd drives the daemon through the HTTP server
// with the thin client — the exact path the vprofile attach/detach/
// status/tail subcommands use.
func TestControlAPIEndToEnd(t *testing.T) {
	dir, _, capturePath, _ := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)
	srv, err := controlserver.Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := controlclient.New(srv.Addr())
	ctx := context.Background()

	// Attach over HTTP, with validation errors surfacing as client
	// errors.
	if _, err := c.Attach(ctx, controlapi.BusSpec{Bus: "x", Listen: "tcp://127.0.0.1:0", Model: "gone.vpm"}); err == nil {
		t.Fatal("attach with missing model accepted over HTTP")
	} else if !strings.Contains(err.Error(), "gone.vpm") {
		t.Fatalf("validation error lost its detail over the wire: %v", err)
	}
	st, err := c.Attach(ctx, controlapi.BusSpec{
		Bus: "api1", Listen: "tcp://127.0.0.1:0", Model: "model.vpm", Quarantine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != controlapi.BusWaiting {
		t.Fatalf("fresh bus state = %s", st.State)
	}

	// Stream a capture into the advertised ingest endpoint and wait
	// for the daemon to chew through it.
	if _, err := controlclient.StreamCapture(st.Ingest, capturePath, controlclient.StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	st, err = c.WaitBusDone(wctx, "api1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tally == nil || st.Tally.Frames == 0 {
		t.Fatalf("no tally over HTTP: %+v", st)
	}

	// Daemon-wide status shows the bus.
	resp, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Buses) != 1 || resp.Buses[0].Bus != "api1" {
		t.Fatalf("status buses = %+v", resp.Buses)
	}

	// The event subscription pages through the attack's alarms; a
	// follow-up poll from the cursor with no new events returns empty.
	ev, err := c.Events(ctx, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Events) == 0 {
		t.Fatal("no events over the subscription")
	}
	if ev.Next != ev.Events[len(ev.Events)-1].Seq+1 {
		t.Fatalf("cursor %d does not follow the last event seq %d", ev.Next, ev.Events[len(ev.Events)-1].Seq)
	}
	// Page to the tail, then a long-poll from there comes back empty.
	cursor := ev.Next
	for {
		page, err := c.Events(ctx, cursor, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		cursor = page.Next
		if len(page.Events) == 0 {
			break
		}
	}
	again, err := c.Events(ctx, cursor, 100, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Events) != 0 {
		t.Fatalf("long-poll from the tail returned %d stale events", len(again.Events))
	}

	// Model hot-swap over HTTP bumps the version.
	sw, err := c.Swap(ctx, "api1", "model.vpm")
	if err != nil {
		t.Fatal(err)
	}
	if sw.Version != 2 {
		t.Fatalf("swap version = %d, want 2", sw.Version)
	}

	// Detach removes the bus; a second detach 404s.
	st, err = c.Detach(ctx, "api1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != controlapi.BusDetached {
		t.Fatalf("detached state = %s", st.State)
	}
	if _, err := c.Detach(ctx, "api1"); err == nil {
		t.Fatal("double detach accepted")
	}
}

// TestAttachRejectsMalformedBodies posts attach bodies the typed client
// never sends. A misspelled key must come back as a 400 naming the key,
// not as a bus attached with that setting silently off, and so must a
// body with data after its JSON value. Neither attaches a bus.
func TestAttachRejectsMalformedBodies(t *testing.T) {
	dir, _, _, _ := fixtureDir(t)
	d, err := controlserver.New(controlserver.Config{BaseDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(5 * time.Second)
	srv, err := controlserver.Serve("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	url := "http://" + srv.Addr() + controlapi.PathAttach
	for _, tc := range []struct{ body, want string }{
		{`{"bus":"typo","listen":"tcp://127.0.0.1:0","model":"model.vpm","quarantin":true}`, `"quarantin"`},
		{`{"bus":"tail","listen":"tcp://127.0.0.1:0","model":"model.vpm"} {"bus":"more"}`, "data after the JSON value"},
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e controlapi.Error
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("body %s: undecodable response: %v", tc.body, derr)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Fatalf("body %s: status %d, error %q; want 400 naming %s", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if buses := d.Status().Buses; len(buses) != 0 {
		t.Fatalf("malformed attach bodies attached %d buses", len(buses))
	}
}
