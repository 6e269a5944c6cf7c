package controlserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"vprofile/internal/control/controlapi"
)

// maxRequestBody bounds control-request bodies; specs are tiny.
const maxRequestBody = 1 << 20

// maxEventWait caps the long-poll hold so a dead client's request
// does not pin a handler goroutine forever.
const maxEventWait = 60 * time.Second

// Server is the HTTP+JSON control listener in front of a Daemon.
type Server struct {
	d   *Daemon
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves the control API until Shutdown.
func Serve(addr string, d *Daemon) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control listen %s: %w", addr, err)
	}
	s := &Server{d: d, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc(controlapi.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc(controlapi.PathStatus, s.handleStatus)
	mux.HandleFunc(controlapi.PathBus, s.handleBus)
	mux.HandleFunc(controlapi.PathAttach, s.handleAttach)
	mux.HandleFunc(controlapi.PathDetach, s.handleDetach)
	mux.HandleFunc(controlapi.PathSwap, s.handleSwap)
	mux.HandleFunc(controlapi.PathReload, s.handleReload)
	mux.HandleFunc(controlapi.PathEvents, s.handleEvents)
	mux.HandleFunc(controlapi.PathFlight, s.handleFlight)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr is the bound control address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the control listener down immediately.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, controlapi.Error{Error: err.Error()})
}

// decodeBody reads a POST body holding exactly one JSON value into v.
// It is as strict as the policy parser: an unknown field (a misspelled
// "quarantin") or data after the value is a 400, never a silently
// default-valued request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.d.Status())
}

func (s *Server) handleBus(w http.ResponseWriter, r *http.Request) {
	st, err := s.d.BusStatus(r.URL.Query().Get("bus"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var spec controlapi.BusSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := s.d.Attach(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req controlapi.DetachRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, err := s.d.Detach(req.Bus, 10*time.Second)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req controlapi.SwapRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.d.Swap(req.Bus, req.Model)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", r.URL.Path))
		return
	}
	resp, err := s.d.Reload()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	max, _ := strconv.Atoi(q.Get("max"))
	if max <= 0 || max > 1000 {
		max = 1000
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			wait = d
		}
	}
	if wait > maxEventWait {
		wait = maxEventWait
	}
	writeJSON(w, http.StatusOK, s.d.Events(after, max, wait))
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bus, bundle, file := q.Get("bus"), q.Get("bundle"), q.Get("file")
	if bundle == "" && file == "" {
		list, err := s.d.Flight(bus)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, list)
		return
	}
	rc, err := s.d.FlightFile(bus, bundle, file)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, rc)
}
