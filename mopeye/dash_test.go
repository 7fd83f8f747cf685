package mopeye

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// A plain dashboard over a short workload: frames land in the buffer,
// the busiest app gets a row, and its sparkline carries bar runes. The
// phone closing ends the stream, which ends Run.
func TestDashRendersFrames(t *testing.T) {
	p := newPhone(t)
	var buf syncBuffer
	d, err := NewDash(p, DashOptions{
		Interval: 10 * time.Millisecond,
		Out:      &buf,
		Plain:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Run(context.Background()) }()

	for i := 0; i < 4; i++ {
		conn, err := p.Connect(10001, "api.example.com:443")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	p.Close() // ends the dashboard's subscription, and so Run
	if n := len(p.TCPMeasurements()); n != 4 {
		t.Fatalf("%d TCP records after Close, want 4", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("dash run: %v", err)
	}

	out := buf.String()
	if !strings.Contains(out, "mopeye dash · frame") {
		t.Fatalf("no frames rendered:\n%s", out)
	}
	if !strings.Contains(out, "com.example.app") {
		t.Errorf("busiest app missing from frames:\n%s", out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("no sparkline in frames:\n%s", out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("plain frames must carry no ANSI codes")
	}
}

// The HTTP surface: GET / serves the current frame as text, GET
// /metrics the phone's exposition — on an ephemeral port known before
// Run starts.
func TestDashHTTP(t *testing.T) {
	p := newPhone(t)
	d, err := NewDash(p, DashOptions{
		Interval: 10 * time.Millisecond,
		Out:      io.Discard,
		Addr:     "127.0.0.1:0",
		Plain:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Addr() == "" {
		t.Fatal("ephemeral port not bound before Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	conn, err := p.Connect(10001, "api.example.com:443")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	frame, _ := get("/")
	if !strings.Contains(frame, "mopeye dash · frame") {
		t.Errorf("GET / frame:\n%s", frame)
	}
	expo, ctype := get("/metrics")
	if ctype != metrics.ContentType {
		t.Errorf("metrics content type %q", ctype)
	}
	if !strings.Contains(expo, "mopeye_engine_") {
		t.Errorf("GET /metrics missing engine families:\n%s", expo)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("dash run: %v", err)
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil); s != "" {
		t.Errorf("empty window: %q", s)
	}
	if s := sparkline([]float64{5, 5, 5}); s != "▁▁▁" {
		t.Errorf("flat window: %q", s)
	}
	s := sparkline([]float64{1, 50, 100})
	if []rune(s)[0] != '▁' || []rune(s)[2] != '█' {
		t.Errorf("ramp window: %q", s)
	}
}

// syncBuffer guards a bytes.Buffer: the dashboard renders from its own
// goroutine while the test reads the result.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
