package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/mopeye"
)

// syncWriter guards a buffer against the concurrent writers a run
// fans out (follow printer, dash renderer, main-line report).
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestRunSimFollowJSONLUpload drives the full simulated-plane run —
// live follow printer, JSONL stream on stdout, crowdsourced upload to
// a real collector server — and checks every surface it writes to.
func TestRunSimFollowJSONLUpload(t *testing.T) {
	srv, err := crowd.NewServer(crowd.ServerOptions{})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg, err := parseFlags([]string{
		"-apps", "2", "-pages", "1", "-conns", "2",
		"-follow", "-jsonl", "-upload", ts.URL, "-device", "test-phone",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	var stdout, stderr syncWriter
	if err := runSim(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("runSim: %v", err)
	}

	// stdout carries the JSONL measurement stream.
	if !strings.Contains(stdout.String(), `"rtt_ns"`) {
		t.Fatalf("stdout missing JSONL records:\n%s", stdout.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "{") {
			t.Fatalf("non-JSONL line on stdout: %q", line)
		}
	}

	// The human report (and the follow printer) moved to stderr.
	for _, want := range []string{
		"running mopeye engine", "per-app view", "com.facebook.katana",
		"uploaded", "DNS:",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}

	// The collector actually received the uploaded records: every JSONL
	// line is one of them.
	lines := strings.Count(stdout.String(), "\n")
	if got := srv.Stats().Records; got == 0 || got != lines {
		t.Fatalf("collector received %d records, stdout carries %d JSONL lines", got, lines)
	}
}

// TestMonitorRealPlaneFlags pins that the wiring runReal shares with
// runSim honours every live flag: a `-tun real -follow -jsonl -upload
// -device -token` command line, driven through monitor over a
// simulated phone (no TUN needed — monitor never learns the plane),
// streams JSONL, prints live and uploads to a token-gated collector.
// work returns with far fewer than one batch recorded, as a ctrl-c
// would, so everything uploaded is the final partial batch the closing
// sequence flushed: uploaded records == JSONL lines == store length.
func TestMonitorRealPlaneFlags(t *testing.T) {
	spool := t.TempDir()
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: spool, Token: "s3cret"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cfg, err := parseFlags([]string{
		"-tun", "real", "-follow", "-jsonl",
		"-upload", ts.URL, "-device", "real-phone", "-token", "s3cret",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{{Domain: "api.example.com", RTTMillis: 5}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer phone.Close()
	phone.InstallApp(10001, "com.example.app")

	const conns = 3
	var stdout, stderr syncWriter
	err = monitor(cfg, phone, &stdout, reportWriter(cfg, &stdout, &stderr), func() {
		for i := 0; i < conns; i++ {
			conn, err := phone.Connect(10001, "api.example.com:443")
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			conn.Close()
		}
		// A record lands on its connect thread after the lazy mapping,
		// later than Connect returns: wait for one TCP and one DNS
		// record per connect so the store is final before the close.
		for deadline := time.Now().Add(10 * time.Second); len(phone.Measurements()) < 2*conns && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}

	stored := len(phone.Measurements())
	lines := strings.Count(stdout.String(), "\n")
	st := srv.Stats()
	if stored != 2*conns || lines != stored || st.Records != stored {
		t.Fatalf("store %d records (want %d), JSONL %d lines, collector %d records (%d auth failures)",
			stored, 2*conns, lines, st.Records, st.AuthFailures)
	}
	if st.Batches != 1 {
		t.Errorf("collector accepted %d batches, want the one final partial batch", st.Batches)
	}
	uploaded, err := crowd.ReadSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range uploaded {
		if r.Device != "real-phone" {
			t.Fatalf("uploaded record stamped %q, want real-phone", r.Device)
		}
	}
	// -follow printed each record live, on stderr beside the upload line.
	if got := strings.Count(stderr.String(), "com.example.app"); got < conns {
		t.Errorf("follow printer showed %d app lines, want >= %d:\n%s", got, conns, stderr.String())
	}
	if !strings.Contains(stderr.String(), "uploaded 1 batches") {
		t.Errorf("stderr missing the upload report:\n%s", stderr.String())
	}
}

// TestMonitorJSONLMatchesSnapshot pins the -jsonl stream of a run to
// measure.WriteJSONL of the phone's snapshot, byte for byte: the
// printer misses no record, reorders none, and writes the one JSON
// Lines encoding.
//
// Records are complete once a phone closes: Stop joins the connect
// threads, and a closed socket stays in /proc/net until the peer's
// FIN. The test counts right after Close, so it repeats under the race
// detector: it must never miss or lose a record.
//
//race:repeat 20
func TestMonitorJSONLMatchesSnapshot(t *testing.T) {
	cfg, err := parseFlags([]string{"-jsonl"})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{{Domain: "api.example.com", RTTMillis: 5}},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer phone.Close()
	phone.InstallApp(10001, "com.example.app")

	const conns = 3
	var stdout, stderr syncWriter
	err = monitor(cfg, phone, &stdout, reportWriter(cfg, &stdout, &stderr), func() {
		for i := 0; i < conns; i++ {
			conn, err := phone.Connect(10001, "api.example.com:443")
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			conn.Close()
		}
	})
	if err != nil {
		t.Fatalf("monitor: %v", err)
	}
	snap := phone.Measurements()
	if len(snap) != 2*conns {
		t.Fatalf("%d records after Close, want %d", len(snap), 2*conns)
	}
	var want bytes.Buffer
	if err := measure.WriteJSONL(&want, snap); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != want.String() {
		t.Errorf("-jsonl stream differs from the snapshot's export:\n%s\nvs\n%s", got, want.String())
	}
}

// TestRunSimDash exercises the -dash-addr wiring end to end: the run
// announces the dashboard URL and completes cleanly with the dash
// subscriber attached.
func TestRunSimDash(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-apps", "1", "-pages", "1", "-conns", "1",
		"-dash-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	var stdout, stderr syncWriter
	if err := runSim(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("runSim: %v", err)
	}
	if !strings.Contains(stdout.String(), "dash: http://") {
		t.Fatalf("stdout missing dash URL:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "per-app view") {
		t.Fatalf("stdout missing report:\n%s", stdout.String())
	}
}
