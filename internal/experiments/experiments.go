// Package experiments drives the paper's evaluation (§4.1): each
// exported Run* function reproduces one table or figure of the
// accuracy/overhead section, returning structured results plus a
// paper-style text rendering. The crowdsourcing analyses (§4.2) live in
// package crowd.
package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/testbed"
)

// Workload identifiers used in reports.
const (
	uidBrowser = 10050
	uidApp     = 10051
	uidVideo   = 10052
)

// browse simulates web browsing through the bed: pages consisting of a
// DNS lookup followed by a burst of concurrent connections, each doing
// a small request/response exchange. This is the workload of §3.3's
// lazy-mapping evaluation (481 socket-connect threads in the paper's
// run) and of Table 1's write-scheme measurements.
func browse(bed *testbed.Bed, pages, connsPerPage int, domain string, server netip.AddrPort) (connects int, failures int) {
	var mu sync.Mutex
	for p := 0; p < pages; p++ {
		_, _ = bed.Phone.Resolve(uidBrowser, testbed.DNSAddr, domain, 2*time.Second)
		var wg sync.WaitGroup
		for c := 0; c < connsPerPage; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := bed.Phone.Connect(uidBrowser, server, 5*time.Second)
				if err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					return
				}
				defer conn.Close()
				// A small HTTP-ish exchange: 4 KiB response.
				if _, err := conn.Write([]byte{0, 0, 0x10, 0}); err != nil {
					return
				}
				buf := make([]byte, 4096)
				_ = conn.ReadFull(buf)
			}()
		}
		wg.Wait()
	}
	return pages * connsPerPage, failures
}

// renderTable joins aligned columns for the text reports.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// histColumn renders a DelayHistogram as Table 1 row values.
func histColumn(h stats.DelayHistogram) []string {
	out := []string{fmt.Sprintf("%d", h.Total)}
	for _, c := range h.Counts {
		out = append(out, fmt.Sprintf("%d", c))
	}
	return out
}

// drain reads from a connection (relayed or direct) for the duration
// and returns the bytes received.
func drain(r io.Reader, d time.Duration) int64 {
	deadline := time.Now().Add(d)
	buf := make([]byte, 64*1024)
	var total int64
	for time.Now().Before(deadline) {
		n, err := r.Read(buf)
		total += int64(n)
		if err != nil {
			break
		}
	}
	return total
}

// push writes into a connection (relayed or direct) for the duration
// and returns the bytes accepted — through a relay, window-clocked by
// its ACKs.
func push(w io.Writer, d time.Duration) int64 {
	deadline := time.Now().Add(d)
	chunk := make([]byte, 16*1024)
	var total int64
	for time.Now().Before(deadline) {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			break
		}
	}
	return total
}

// mbps converts a byte count over a duration to megabits per second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / d.Seconds()
}
