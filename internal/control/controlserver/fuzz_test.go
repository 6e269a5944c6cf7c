package controlserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"vprofile/internal/control"
	"vprofile/internal/control/controlapi"
)

// FuzzDecodeBody throws arbitrary bytes at the control API's attach
// path as a request body: decodeBody, then control.ValidateSpec, the
// checks a spec passes before the daemon acts on it. Neither may
// panic; a rejected body is a 400 carrying the JSON error envelope;
// and every spec both accept must survive a JSON round trip —
// re-encoded and decoded again it is the same spec, and still valid.
// Seeds beyond the one below live in testdata/fuzz/FuzzDecodeBody.
func FuzzDecodeBody(f *testing.F) {
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "model.vpm"), []byte("stub"), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"bus":"front","listen":"tcp://127.0.0.1:9700","model":"model.vpm"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, ok := decodeSpec(t, body)
		if !ok || control.ValidateSpec(&spec, dir) != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, ok := decodeSpec(t, enc)
		if !ok {
			t.Fatalf("re-encoded spec rejected: %s\nbody: %q", enc, body)
		}
		if again != spec {
			t.Fatalf("spec changed over a JSON round trip: %+v, then %+v\nbody: %q", spec, again, body)
		}
		if err := control.ValidateSpec(&again, dir); err != nil {
			t.Fatalf("round-tripped spec fails validation: %v\nbody: %q", err, body)
		}
	})
}

// decodeSpec runs body through decodeBody as an attach request. A
// rejection must be a 400 with the JSON error envelope.
func decodeSpec(t *testing.T, body []byte) (controlapi.BusSpec, bool) {
	t.Helper()
	var spec controlapi.BusSpec
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, controlapi.PathAttach, bytes.NewReader(body))
	if decodeBody(w, r, &spec) {
		return spec, true
	}
	var e controlapi.Error
	if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("rejection is status %d body %q, want 400 with an error envelope\nrequest: %q", w.Code, w.Body.Bytes(), body)
	}
	return spec, false
}
