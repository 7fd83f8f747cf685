package engine_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestPerFlowOrderingAcrossConfigs is the ordering property test of
// the relay pipeline: each flow writes a stream of sequence-numbered
// messages through the relay and verifies the echoes come back with
// the sequence numbers in order and intact. The phone stack delivers
// only in-order segments (out-of-order data is dropped as duplicate,
// like a kernel without reassembly for a lossless tunnel), so any
// reordering introduced by the reader's routing, the rings, or the
// writer surfaces as a corrupted or stalled stream. The grid covers
// the paper-faithful core and the multi-worker pipeline; a ring smaller
// than the in-flight packet count forces the reader's backpressure path
// at both.
func TestPerFlowOrderingAcrossConfigs(t *testing.T) {
	configs := []struct {
		name     string
		workers  int
		ringSize int
	}{
		{name: "workers=1", workers: 1},
		{name: "workers=1/tiny-ring", workers: 1, ringSize: 8},
		{name: "workers=4", workers: 4},
		{name: "workers=2/tiny-ring", workers: 2, ringSize: 8},
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
