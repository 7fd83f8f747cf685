package mopeye

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/phonestack"
)

// This file is the engine-ceiling benchmark behind `paperbench -exp
// dispatch` and BenchmarkEngineCeiling: the same multi-app flood as the
// parallel sweep, but over a zero-delay loopback network
// (netsim.SetLoopback) so the measured packets/sec is bounded by the
// engine — TUN queues, dispatch, flow table, relay handlers — rather
// than by the simulated wire. Separating the compute ceiling from the
// workload this way is the WLCG benchmarking-workflows idea PAPERS.md
// points at. The flood also fires datagrams at a loopback UDP echo
// service, exercising the pooled UDP relay (sessions + bounded worker
// pool) alongside the zero-copy TCP dispatch path.

// DispatchBenchOptions configures the loopback ceiling flood.
type DispatchBenchOptions struct {
	// WorkerCounts is the sweep, e.g. [1, 2, 4].
	WorkerCounts []int
	// Apps is the number of simulated apps, each with its own server.
	Apps int
	// ConnsPerApp is the number of concurrent connections per app.
	ConnsPerApp int
	// EchoesPerConn is the number of request/response rounds each
	// connection performs.
	EchoesPerConn int
	// PayloadBytes is the request size per echo.
	PayloadBytes int
	// UDPPerConn is how many datagrams each connection's goroutine
	// fires at the loopback UDP echo service.
	UDPPerConn int
	// ReadBatch sets the engine's burst size for the run: 0 keeps the
	// engine default (64), 1 disables batching — sweeping it isolates
	// what burst reads buy at the ceiling (`paperbench -exp dispatch
	// -readbatch 1,64`).
	ReadBatch int
	// ReadBatchAuto runs the AIMD burst governor instead of a pinned
	// ReadBatch (which then serves as the ceiling) — the `-readbatch
	// auto` arm, proving the governor converges near the best fixed
	// batch.
	ReadBatchAuto bool
	// Subscribers attaches this many live measurement subscribers
	// (Phone.Subscribe draining concurrently) for the duration of the
	// flood — the BenchmarkSubscribeOverhead knob proving the
	// broadcast layer's cost at the engine ceiling: zero for the
	// baseline, 1/8 for fan-out.
	Subscribers int
	// Metrics arms the phone's observability registry for the flood:
	// the engine instruments register, the RTT quantile feed
	// subscribes, and a background scraper renders the exposition
	// repeatedly while the flood runs. The with/without arms price the
	// instrumentation at the engine ceiling (`paperbench -exp dispatch
	// -metrics`); both must land within noise of each other.
	Metrics bool
}

// DefaultDispatchBenchOptions returns a flood heavy enough to saturate
// the engine but quick to run.
func DefaultDispatchBenchOptions() DispatchBenchOptions {
	return DispatchBenchOptions{
		WorkerCounts:  []int{1, 2, 4},
		Apps:          4,
		ConnsPerApp:   8,
		EchoesPerConn: 60,
		PayloadBytes:  1200,
		UDPPerConn:    10,
	}
}

// DispatchBenchRow is one worker count's result.
type DispatchBenchRow struct {
	Workers       int
	Duration      time.Duration
	Packets       int // tunnel packets in both directions
	PacketsPerSec float64
	UDPRelayed    int // datagram responses relayed by the pooled relay
	UDPDropped    int // datagrams dropped at the relay's bounded queue
	Errors        int
	// Streamed and StreamDropped account the measurement broadcast
	// when Options.Subscribers > 0: records delivered to subscribers
	// and records lost to full subscriber rings.
	Streamed      int
	StreamDropped int
	// AvgReadBatch is the realised burst size over the flood
	// (BatchedPackets/ReadBatches); BatchLimit is the reader's burst
	// limit when the flood ended — under ReadBatchAuto, where the
	// governor converged. Both zero at Workers=1 (no batched reader).
	AvgReadBatch float64
	BatchLimit   int
}

// DispatchBenchResult is the full sweep.
type DispatchBenchResult struct {
	Options DispatchBenchOptions
	Rows    []DispatchBenchRow
}

// Speedup returns row[i] throughput relative to the Workers=1 row
// (0 when absent).
func (r *DispatchBenchResult) Speedup(workers int) float64 {
	var base, at float64
	for _, row := range r.Rows {
		if row.Workers == 1 {
			base = row.PacketsPerSec
		}
		if row.Workers == workers {
			at = row.PacketsPerSec
		}
	}
	if base == 0 {
		return 0
	}
	return at / base
}

// String renders the sweep as a table; with subscribers attached the
// stream accounting gets its own columns.
func (r *DispatchBenchResult) String() string {
	var b strings.Builder
	streaming := r.Options.Subscribers > 0
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %10s %10s %8s %10s %6s",
		"workers", "duration", "packets", "pkts/sec", "udp-relay", "udp-drop", "speedup",
		"avg-batch", "limit")
	if streaming {
		fmt.Fprintf(&b, " %10s %12s", "streamed", "stream-drop")
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %10s %10d %12.0f %10d %10d %7.2fx %10.1f %6d",
			row.Workers, row.Duration.Round(time.Millisecond), row.Packets,
			row.PacketsPerSec, row.UDPRelayed, row.UDPDropped, r.Speedup(row.Workers),
			row.AvgReadBatch, row.BatchLimit)
		if streaming {
			fmt.Fprintf(&b, " %10d %12d", row.Streamed, row.StreamDropped)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// dispatchUDPEcho is where the loopback UDP echo service listens.
var dispatchUDPEcho = netip.MustParseAddrPort("203.0.113.200:7777")

// RunDispatchBench floods a loopback phone once per worker count and
// reports engine-ceiling throughput for each.
func RunDispatchBench(o DispatchBenchOptions) (*DispatchBenchResult, error) {
	if len(o.WorkerCounts) == 0 {
		o.WorkerCounts = []int{1, 2, 4}
	}
	res := &DispatchBenchResult{Options: o}
	for _, w := range o.WorkerCounts {
		row, err := runDispatchOnce(o, w)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runDispatchOnce(o DispatchBenchOptions, workers int) (DispatchBenchRow, error) {
	servers := make([]Server, o.Apps)
	for i := range servers {
		servers[i] = Server{
			Domain: fmt.Sprintf("ceiling%d.example", i),
			Addr:   fmt.Sprintf("203.0.113.%d:80", 10+i),
		}
	}
	phone, err := New(Options{
		Servers:       servers,
		Workers:       workers,
		ReadBatch:     o.ReadBatch,
		ReadBatchAuto: o.ReadBatchAuto,
		Loopback:      true,
	})
	if err != nil {
		return DispatchBenchRow{}, err
	}
	defer phone.Close()
	for i := 0; i < o.Apps; i++ {
		phone.InstallApp(20001+i, fmt.Sprintf("ceiling.app%d", i))
	}
	phone.bed.Net.HandleUDP(dispatchUDPEcho, 0, func(req []byte, _ netip.AddrPort) []byte {
		return req
	})

	// Live subscribers, each draining its own bounded ring for the
	// whole flood; Subscribe registers synchronously, so all of them
	// observe the flood from its first record, and their streams end
	// when the phone closes.
	var streamed atomic.Int64
	var subWG sync.WaitGroup
	for i := 0; i < o.Subscribers; i++ {
		stream := phone.Subscribe(context.Background(), Filter{})
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for range stream {
				streamed.Add(1)
			}
		}()
	}

	// The metrics arm: arm the registry (engine instruments + RTT
	// quantile feed) before the flood and scrape it continuously while
	// the flood runs, so the arm prices registration, the quantile
	// drain, AND concurrent gathers — the full observability cost.
	scrapeDone := make(chan struct{})
	if o.Metrics {
		if err := phone.WriteMetrics(io.Discard); err != nil {
			phone.Close()
			return DispatchBenchRow{}, err
		}
		go func() {
			defer close(scrapeDone)
			for {
				select {
				case <-phone.done:
					return
				default:
				}
				_ = phone.WriteMetrics(io.Discard)
				time.Sleep(20 * time.Millisecond)
			}
		}()
	} else {
		close(scrapeDone)
	}

	payload := make([]byte, o.PayloadBytes)
	var errCount atomic.Int64

	// flood is the timed work: the echo rounds plus the UDP send burst.
	// It returns the open UDP socket so response draining — which can
	// block on Recv timeouts when the relay legitimately drops — stays
	// outside the throughput clock.
	flood := func(a int) *phonestack.UDPConn {
		uid := 20001 + a
		conn, err := phone.Connect(uid, servers[a].Addr)
		if err != nil {
			errCount.Add(1)
			return nil
		}
		defer conn.Close()
		buf := make([]byte, len(payload))
		for i := 0; i < o.EchoesPerConn; i++ {
			if _, err := conn.Write(payload); err != nil {
				errCount.Add(1)
				return nil
			}
			if err := conn.ReadFull(buf); err != nil {
				errCount.Add(1)
				return nil
			}
		}
		if o.UDPPerConn == 0 {
			return nil
		}
		u, err := phone.bed.Phone.OpenUDP(uid)
		if err != nil {
			errCount.Add(1)
			return nil
		}
		for i := 0; i < o.UDPPerConn; i++ {
			if err := u.SendTo(dispatchUDPEcho, payload[:64]); err != nil {
				errCount.Add(1)
				break
			}
		}
		return u
	}

	start := time.Now()
	var wgFlood, wgDrain sync.WaitGroup
	for a := 0; a < o.Apps; a++ {
		for c := 0; c < o.ConnsPerApp; c++ {
			wgFlood.Add(1)
			wgDrain.Add(1)
			go func(a int) {
				defer wgDrain.Done()
				u := flood(a)
				wgFlood.Done()
				if u == nil {
					return
				}
				defer u.Close()
				// Drain whatever responses made it back; the relay may
				// legitimately drop under overload, so absence is not
				// an error (and is not timed).
				for i := 0; i < o.UDPPerConn; i++ {
					if _, _, err := u.Recv(200 * time.Millisecond); err != nil {
						break
					}
				}
			}(a)
		}
	}
	wgFlood.Wait()
	dur := time.Since(start)
	// Snapshot the packet counters at the same instant the clock stops,
	// so pkts/sec divides a consistent window; packets relayed during
	// the untimed drain below must not inflate the ceiling.
	mid := phone.EngineStats()
	wgDrain.Wait()

	// UDP accounting is read after the drain so late relays are counted.
	st := phone.EngineStats()
	pkts := mid.PacketsFromTun + mid.PacketsToTun

	// Close ends the subscriber streams (after delivering what is
	// ringed); only then are the stream counters complete.
	phone.Close()
	subWG.Wait()
	<-scrapeDone
	return DispatchBenchRow{
		Workers:       workers,
		Duration:      dur,
		Packets:       pkts,
		PacketsPerSec: float64(pkts) / dur.Seconds(),
		UDPRelayed:    st.UDPRelayed,
		UDPDropped:    st.UDPDropped,
		Errors:        int(errCount.Load()),
		Streamed:      int(streamed.Load()),
		StreamDropped: int(phone.StreamDrops()),
		AvgReadBatch:  mid.AvgReadBatch,
		BatchLimit:    mid.ReadBatchLimit,
	}, nil
}
