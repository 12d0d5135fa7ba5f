package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"goldfish"
	"goldfish/internal/obs"
	"goldfish/internal/version"
)

// TestObsEndpoints boots the server's observability listener on an ephemeral
// port and hits the endpoints a deployment would probe: /healthz must report
// liveness with the version banner, /debug/vars must serve the live metrics
// snapshot.
func TestObsEndpoints(t *testing.T) {
	observer := goldfish.NewObserver(nil)
	observer.Counter("fed.rounds").Add(3)

	srv, ln, err := startObsServer("127.0.0.1:0", observer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if srv.ReadHeaderTimeout != obsReadHeaderTimeout || obsReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, obsReadHeaderTimeout)
	}
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d, want 200", resp.StatusCode)
	}
	if want := "ok goldfish-server " + version.Version; !strings.HasPrefix(string(body), want) {
		t.Errorf("/healthz body = %q, want prefix %q", body, want)
	}

	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status = %d, want 200", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/vars is not snapshot JSON: %v\n%s", err, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "fed.rounds" || snap.Counters[0].Value != 3 {
		t.Errorf("/debug/vars counters = %+v, want fed.rounds=3", snap.Counters)
	}
}
