package cli

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPprofGate pins the -pprof opt-in: the profiling endpoints exist only
// when SetPprof(true) ran before Register, and the live endpoints are
// there either way.
func TestPprofGate(t *testing.T) {
	for _, on := range []bool{false, true} {
		state := NewLiveState(1)
		state.SetPprof(on)
		mux := http.NewServeMux()
		state.Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()

		for _, path := range []string{"/status", "/metrics"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("pprof=%v: GET %s = %d, want 200", on, path, resp.StatusCode)
			}
		}
		resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("pprof=%v: GET /debug/pprof/cmdline = %d, want %d", on, resp.StatusCode, want)
		}
	}
}

// TestHTTPServerTimeouts pins the listener hardening: header and idle
// timeouts are set, and there is no write timeout to cut a long-lived
// NDJSON stream short.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := NewHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v: result streams and 8 MB specs must not be cut off", srv.WriteTimeout, srv.ReadTimeout)
	}
}
