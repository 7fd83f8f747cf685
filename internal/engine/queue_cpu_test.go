//go:build unix

package engine

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestNewPutWriterIdleCPU feeds a newPut TunWriter one packet every
// 20 ms, a paced flow on a 20 ms path that never leaves the writer idle
// for parkAfter. The writer blocks on the queue between packets instead
// of polling it, so the process spends well under a quarter of the wall
// time on CPU; a writer that polls every 100 µs spins a whole core.
//
// The TunWriter runs beside the relay's workers, whose interleavings
// differ run to run, so the test repeats under the race detector with
// the pipeline's ordering and stress tests.
//
//race:repeat 10
func TestNewPutWriterIdleCPU(t *testing.T) {
	q := newPacketQueue(clock.NewReal(), true, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, ok := q.take(); !ok {
				return
			}
		}
	}()
	cpu0, start := processCPU(t), time.Now()
	for i := 0; i < 16; i++ {
		q.put([]byte{1})
		time.Sleep(20 * time.Millisecond)
	}
	cpu, wall := processCPU(t)-cpu0, time.Since(start)
	q.close()
	<-done
	if cpu >= wall/4 {
		t.Errorf("process used %v of CPU in %v of paced puts, want under a quarter", cpu, wall)
	}
}

// processCPU is the user plus system CPU the process has used so far.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
