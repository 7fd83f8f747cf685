package mopeye

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// This file is the worker-sweep benchmark behind BenchmarkEngineParallel
// and `paperbench -exp parallel`: a multi-app packet flood — a workload
// the paper never exercises, because a phone relays one user — run at
// several engine worker counts. Following the WLCG benchmarking-
// workflows idea (PAPERS.md), the benchmark doubles as the accounting
// that proves (or disproves) the sharded engine's speedup: the same
// run reports throughput and the engine's own counters.

// ParallelBenchOptions configures the multi-app flood.
type ParallelBenchOptions struct {
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
	// RTTMillis is the simulated path RTT to every server; kept small
	// so the engine, not the wire, is the bottleneck.
	RTTMillis float64
	// ReadBatch sets the engine's burst size for the run: 0 keeps the
	// engine default, 1 disables batching.
	ReadBatch int
	// ReadBatchAuto runs the AIMD burst governor (ReadBatch becomes
	// the ceiling) instead of a pinned burst size.
	ReadBatchAuto bool
}

// DefaultParallelBenchOptions returns a flood heavy enough that worker
// scaling is visible on a multi-core host but still quick to run.
func DefaultParallelBenchOptions() ParallelBenchOptions {
	return ParallelBenchOptions{
		WorkerCounts:  []int{1, 2, 4},
		Apps:          4,
		ConnsPerApp:   8,
		EchoesPerConn: 40,
		PayloadBytes:  1200,
		RTTMillis:     1,
	}
}

// ParallelBenchRow is one worker count's result.
type ParallelBenchRow struct {
	Workers       int
	Duration      time.Duration
	Packets       int // tunnel packets in both directions
	PacketsPerSec float64
	BytesRelayed  int64
	Established   int
	Errors        int
}

// ParallelBenchResult is the full sweep.
type ParallelBenchResult struct {
	Options ParallelBenchOptions
	Rows    []ParallelBenchRow
}

// Speedup returns row[i] throughput relative to the Workers=1 row
// (0 when absent).
func (r *ParallelBenchResult) Speedup(workers int) float64 {
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

// String renders the sweep as a table.
func (r *ParallelBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %12s %8s\n",
		"workers", "duration", "packets", "pkts/sec", "MB relayed", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %10s %10d %12.0f %12.2f %7.2fx\n",
			row.Workers, row.Duration.Round(time.Millisecond), row.Packets,
			row.PacketsPerSec, float64(row.BytesRelayed)/1e6, r.Speedup(row.Workers))
	}
	return b.String()
}

// RunParallelBench floods a fresh phone once per worker count and
// reports relay throughput for each.
func RunParallelBench(o ParallelBenchOptions) (*ParallelBenchResult, error) {
	if len(o.WorkerCounts) == 0 {
		o.WorkerCounts = []int{1, 2, 4}
	}
	res := &ParallelBenchResult{Options: o}
	for _, w := range o.WorkerCounts {
		row, err := runParallelOnce(o, w)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runParallelOnce(o ParallelBenchOptions, workers int) (ParallelBenchRow, error) {
	servers := make([]Server, o.Apps)
	for i := range servers {
		servers[i] = Server{
			Domain:    fmt.Sprintf("flood%d.example", i),
			Addr:      fmt.Sprintf("203.0.113.%d:80", 10+i),
			RTTMillis: o.RTTMillis,
		}
	}
	phone, err := New(Options{
		Servers:       servers,
		Workers:       workers,
		ReadBatch:     o.ReadBatch,
		ReadBatchAuto: o.ReadBatchAuto,
	})
	if err != nil {
		return ParallelBenchRow{}, err
	}
	defer phone.Close()
	for i := 0; i < o.Apps; i++ {
		phone.InstallApp(20001+i, fmt.Sprintf("flood.app%d", i))
	}

	payload := make([]byte, o.PayloadBytes)
	var errs sync.Map
	var errCount int
	start := time.Now()
	var wg sync.WaitGroup
	for a := 0; a < o.Apps; a++ {
		for c := 0; c < o.ConnsPerApp; c++ {
			wg.Add(1)
			go func(a, c int) {
				defer wg.Done()
				conn, err := phone.Connect(20001+a, servers[a].Addr)
				if err != nil {
					errs.Store(fmt.Sprintf("%d/%d", a, c), err)
					return
				}
				defer conn.Close()
				buf := make([]byte, len(payload))
				for i := 0; i < o.EchoesPerConn; i++ {
					if _, err := conn.Write(payload); err != nil {
						errs.Store(fmt.Sprintf("%d/%d", a, c), err)
						return
					}
					if err := conn.ReadFull(buf); err != nil {
						errs.Store(fmt.Sprintf("%d/%d", a, c), err)
						return
					}
				}
			}(a, c)
		}
	}
	wg.Wait()
	dur := time.Since(start)
	errs.Range(func(_, _ any) bool { errCount++; return true })

	st := phone.EngineStats()
	pkts := st.PacketsFromTun + st.PacketsToTun
	return ParallelBenchRow{
		Workers:       workers,
		Duration:      dur,
		Packets:       pkts,
		PacketsPerSec: float64(pkts) / dur.Seconds(),
		BytesRelayed:  st.BytesUp + st.BytesDown,
		Established:   st.Established,
		Errors:        errCount,
	}, nil
}
