package engine_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/tun"
)

// TestReleasedTunBuffersKeepContent is the check on the TUN buffer
// release contract: every consumer that keeps tunnel bytes past
// processing — the socket write buffer, the UDP relay, the payload a
// FIN carries, the phone's receive queue — must keep them only until it
// releases their buffer. Under -race a released buffer is overwritten
// before it is pooled, so a consumer that reads after releasing sees
// garbage here; in an ordinary build it would see the next packet.
// Thirty-two flows echo 1 B, 700 B, one MSS and 64 KiB of their own
// byte pattern, DNS lookups run beside them, and one flow, driven by
// hand, sends its last bytes on its FIN.
//
// That overwrite happens only under -race, so the test repeats under
// the race detector.
//
//race:repeat 20
func TestReleasedTunBuffersKeepContent(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := engine.Default()
			cfg.Workers = workers
			hand := &handTun{port: 45000, segs: make(chan *packet.Packet, 256)}
			tb := newTestbedOn(t, cfg, func(d *tun.Device) tun.Interface {
				hand.Device = d
				return hand
			})
			mss := tb.dev.MTU() - 40
			sizes := []int{1, 700, mss, 64 << 10}

			const flows, lookups = 32, 8
			errs := make(chan error, flows+2)
			for f := 0; f < flows; f++ {
				go func(f int) { errs <- echoSizes(tb, f, sizes) }(f)
			}
			go func() { errs <- resolveAll(tb, lookups) }()
			go func() { errs <- hand.finWithData(tb, []byte("head-"), []byte("rides on the FIN")) }()

			deadline := time.After(60 * time.Second)
			for i := 0; i < flows+2; i++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("stalled with %d of %d tasks done", i, flows+2)
				}
			}
			waitFor(t, 3*time.Second, func() bool {
				return len(tb.eng.Store().Kind(measure.KindDNS)) >= lookups
			}, "a DNS record per lookup")
			for _, r := range tb.eng.Store().Kind(measure.KindDNS) {
				if r.Domain != "example.com" {
					t.Errorf("DNS record for %q, want example.com", r.Domain)
				}
			}
		})
	}
}

// echoSizes echoes one payload of each size over a fresh connection,
// each byte a function of the flow, the size and its offset.
func echoSizes(tb *testbed, f int, sizes []int) error {
	conn, err := tb.phone.Connect(uidApp, tb.server, 10*time.Second)
	if err != nil {
		return fmt.Errorf("flow %d connect: %w", f, err)
	}
	defer conn.Close()
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*(2*f+1) + n + f)
		}
		go func() { _, _ = conn.Write(payload) }()
		got := make([]byte, n)
		if err := conn.ReadFull(got); err != nil {
			return fmt.Errorf("flow %d, %d B: read: %w", f, n, err)
		}
		if i := firstDiff(got, payload); i >= 0 {
			return fmt.Errorf("flow %d, %d B: byte %d is %#x, want %#x", f, n, i, got[i], payload[i])
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// resolveAll runs n DNS lookups one after another (a burst would be
// shed by the relay's DNS cap, which is not under test here).
func resolveAll(tb *testbed, n int) error {
	for i := 0; i < n; i++ {
		res, err := tb.phone.Resolve(uidApp, tb.dns, "example.com", 5*time.Second)
		if err != nil {
			return fmt.Errorf("lookup %d: %w", i, err)
		}
		if res.Addr != tb.server.Addr() {
			return fmt.Errorf("lookup %d resolved %v, want %v", i, res.Addr, tb.server.Addr())
		}
	}
	return nil
}

// handTun passes the engine's packets through to the phone, except
// those addressed to port, which the test plays itself: the phone
// stack has no way to put data on a FIN. Each of those is decoded,
// its payload copied (the engine reuses the buffer it wrote from), and
// handed to segs.
type handTun struct {
	*tun.Device
	port uint16
	segs chan *packet.Packet
}

func (d *handTun) Write(raw []byte) error {
	p, err := packet.Decode(raw)
	if err == nil && p.IsTCP() && p.Dst().Port() == d.port {
		p.Payload = bytes.Clone(p.Payload)
		d.segs <- p
		return nil
	}
	return d.Device.Write(raw)
}

// finWithData opens a connection from port by hand, sends head as data
// and tail on its FIN, and checks the echo server returns both, then
// its own FIN.
func (d *handTun) finWithData(tb *testbed, head, tail []byte) error {
	app := netip.AddrPortFrom(phoneVPNAddr, d.port)
	inject := func(flags uint8, seq, ack uint32, opts, payload []byte) error {
		raw, err := packet.TCPPacket(app, tb.server, flags, seq, ack, 65535, opts, payload).AppendEncode(nil)
		if err != nil {
			return err
		}
		return tb.dev.InjectOutbound(raw)
	}
	next := func() (*packet.Packet, error) {
		select {
		case p := <-d.segs:
			return p, nil
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("hand flow: no segment from the engine")
		}
	}
	tb.table.Add(procnet.Entry{Proto: procnet.TCP, Local: app, Remote: tb.server, State: procnet.StateEstablished, UID: uidApp})

	const iss = 1000
	if err := inject(packet.FlagSYN, iss, 0, packet.MSSOption(1460), nil); err != nil {
		return err
	}
	synack, err := next()
	if err != nil {
		return err
	}
	if !synack.TCP.Has(packet.FlagSYN | packet.FlagACK) {
		return fmt.Errorf("hand flow: got %s, want SYN-ACK", synack)
	}
	rcv := synack.TCP.Seq + 1
	seq := uint32(iss + 1)
	if err := inject(packet.FlagACK, seq, rcv, nil, nil); err != nil {
		return err
	}
	if err := inject(packet.FlagACK|packet.FlagPSH, seq, rcv, nil, head); err != nil {
		return err
	}
	seq += uint32(len(head))
	if err := inject(packet.FlagFIN|packet.FlagACK, seq, rcv, nil, tail); err != nil {
		return err
	}
	want := append(append([]byte(nil), head...), tail...)
	var got []byte
	for {
		p, err := next()
		if err != nil {
			return fmt.Errorf("%w after %q", err, got)
		}
		got = append(got, p.Payload...)
		if p.TCP.Has(packet.FlagFIN) {
			break
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("hand flow echoed %q, want %q", got, want)
	}
	return nil
}
