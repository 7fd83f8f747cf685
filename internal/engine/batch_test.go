package engine_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
)

// Tests for the batched TUN read path: the per-flow ordering property
// across every batch/worker configuration, and the batch accounting
// counters.

// TestPerFlowOrderingAcrossConfigs is the ordering property test the
// batched read path is gated on: each flow writes a stream of
// sequence-numbered messages through the relay and verifies the echoes
// come back with the sequence numbers in order and intact. The phone
// stack delivers only in-order segments (out-of-order data is dropped
// as duplicate, like a kernel without reassembly for a lossless
// tunnel), so any reordering introduced by the scatter path, the rings,
// or the batched writer surfaces as a corrupted or stalled stream. The
// grid covers the paper-faithful core, the batched path with batching
// disabled and two burst sizes; a ring smaller than the in-flight
// packet count forces each reader's backpressure path too (for the
// batched reader, a burst larger than the ring).
func TestPerFlowOrderingAcrossConfigs(t *testing.T) {
	configs := []struct {
		name      string
		workers   int
		readBatch int
		ringSize  int
	}{
		{name: "workers=1", workers: 1},
		{name: "workers=1/tiny-ring", workers: 1, ringSize: 8},
		{name: "workers=4/readbatch=1", workers: 4, readBatch: 1},
		{name: "workers=4/readbatch=8", workers: 4, readBatch: 8},
		{name: "workers=4/readbatch=64", workers: 4, readBatch: 64},
		{name: "workers=2/tiny-ring", workers: 2, readBatch: 64, ringSize: 8},
	}
	const (
		flows   = 6
		msgs    = 25
		payload = 700 // < MSS: one tunnel packet per message
	)
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = tc.workers
			cfg.ReadBatch = tc.readBatch
			cfg.RingSize = tc.ringSize
			tb := newTestbed(t, cfg)

			errs := make(chan error, flows)
			for f := 0; f < flows; f++ {
				go func(f int) {
					conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
					if err != nil {
						errs <- fmt.Errorf("flow %d connect: %w", f, err)
						return
					}
					defer conn.Close()
					msg := make([]byte, payload)
					buf := make([]byte, payload)
					for seq := 0; seq < msgs; seq++ {
						binary.BigEndian.PutUint32(msg[0:], uint32(f))
						binary.BigEndian.PutUint32(msg[4:], uint32(seq))
						for i := 8; i < len(msg); i++ {
							msg[i] = byte(f ^ seq ^ i)
						}
						if _, err := conn.Write(msg); err != nil {
							errs <- fmt.Errorf("flow %d seq %d write: %w", f, seq, err)
							return
						}
						if err := conn.ReadFull(buf); err != nil {
							errs <- fmt.Errorf("flow %d seq %d read: %w", f, seq, err)
							return
						}
						gotFlow := binary.BigEndian.Uint32(buf[0:])
						gotSeq := binary.BigEndian.Uint32(buf[4:])
						if gotFlow != uint32(f) || gotSeq != uint32(seq) {
							errs <- fmt.Errorf("flow %d expected seq %d, echoed (flow=%d seq=%d): per-flow order violated",
								f, seq, gotFlow, gotSeq)
							return
						}
						for i := 8; i < len(buf); i++ {
							if buf[i] != byte(f^seq^i) {
								errs <- fmt.Errorf("flow %d seq %d corrupted at byte %d", f, seq, i)
								return
							}
						}
					}
					errs <- nil
				}(f)
			}
			// A reordering often manifests as a stalled stream (the phone
			// drops the out-of-order segment and nothing retransmits), so
			// bound the wait instead of hanging the suite.
			deadline := time.After(30 * time.Second)
			for f := 0; f < flows; f++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("flows stalled (%d/%d finished): packets likely lost or reordered", f, flows)
				}
			}
		})
	}
}

// TestBatchCountersAccounted verifies the batch accounting: on the
// multi-worker path every tunnel packet flows through a burst read, so
// BatchedPackets covers PacketsFromTun (+ rejected peeks) and
// ReadBatches counts the bursts; on the paper-faithful single-worker
// path both counters stay zero.
func TestBatchCountersAccounted(t *testing.T) {
	run := func(workers int) engine.Stats {
		cfg := engine.Default()
		cfg.Workers = workers
		return statsAfterEcho(t, cfg)
	}

	single := run(1)
	if single.ReadBatches != 0 || single.BatchedPackets != 0 {
		t.Errorf("single-worker engine used the batched path: %d batches, %d packets",
			single.ReadBatches, single.BatchedPackets)
	}

	multi := run(4)
	if multi.ReadBatches == 0 {
		t.Error("multi-worker engine recorded no batched reads")
	}
	if multi.BatchedPackets < multi.PacketsFromTun {
		t.Errorf("BatchedPackets %d < PacketsFromTun %d: packets bypassed the batched reader",
			multi.BatchedPackets, multi.PacketsFromTun)
	}
	if multi.ReadBatches > multi.BatchedPackets {
		t.Errorf("more batches (%d) than batched packets (%d)", multi.ReadBatches, multi.BatchedPackets)
	}
}

// TestReadBatchStatsObservable pins the burst observability: on the
// batched path Stats must expose the realised batch size.
func TestReadBatchStatsObservable(t *testing.T) {
	cfg := engine.Default()
	cfg.Workers = 4
	cfg.ReadBatch = 32
	st := statsAfterEcho(t, cfg)
	if st.ReadBatches > 0 && st.AvgReadBatch <= 0 {
		t.Errorf("AvgReadBatch = %v with %d batches", st.AvgReadBatch, st.ReadBatches)
	}
}

// statsAfterEcho relays one connection's echo through an engine built
// from cfg and returns the counters once its record has landed.
func statsAfterEcho(t *testing.T, cfg engine.Config) engine.Stats {
	t.Helper()
	tb := newTestbed(t, cfg)
	conn, err := tb.phone.Connect(uidApp, tb.server, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("batch accounting probe")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	if err := conn.ReadFull(buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { return tb.eng.Store().Len() >= 1 }, "record")
	return tb.eng.Stats()
}
