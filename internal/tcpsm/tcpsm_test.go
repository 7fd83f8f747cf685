package tcpsm

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

var (
	appAP    = netip.MustParseAddrPort("10.0.0.2:40001")
	serverAP = netip.MustParseAddrPort("93.184.216.34:443")
)

// collector gathers emitted packets. emit only borrows the packet, so
// the collector keeps a clone, made through Encode then Decode.
type collector struct{ pkts []*packet.Packet }

func (c *collector) emit(p *packet.Packet) {
	raw, err := p.AppendEncode(nil)
	if err != nil {
		panic(err)
	}
	clone, err := packet.Decode(raw)
	if err != nil {
		panic(err)
	}
	c.pkts = append(c.pkts, clone)
}

func (c *collector) last() *packet.Packet {
	if len(c.pkts) == 0 {
		return nil
	}
	return c.pkts[len(c.pkts)-1]
}

func synPacket(seq uint32) *packet.Packet {
	return packet.TCPPacket(appAP, serverAP, packet.FlagSYN, seq, 0, 65535, packet.MSSOption(1460), nil)
}

func newSM(t *testing.T) (*Machine, *collector) {
	t.Helper()
	c := &collector{}
	m, err := New(synPacket(1000), 5000, c.emit)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, c
}

func established(t *testing.T) (*Machine, *collector) {
	t.Helper()
	m, c := newSM(t)
	if err := m.CompleteHandshake(); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return m, c
}

func TestNewRequiresSYN(t *testing.T) {
	c := &collector{}
	notSyn := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1, 1, 0, nil, nil)
	if _, err := New(notSyn, 1, c.emit); !errors.Is(err, ErrNotSYN) {
		t.Errorf("got %v", err)
	}
	synAck := packet.TCPPacket(appAP, serverAP, packet.FlagSYN|packet.FlagACK, 1, 1, 0, nil, nil)
	if _, err := New(synAck, 1, c.emit); !errors.Is(err, ErrNotSYN) {
		t.Errorf("SYN-ACK accepted: %v", err)
	}
}

func TestHandshakeEmitsSYNACKWithMSS(t *testing.T) {
	m, c := newSM(t)
	if m.State() != StateSynReceived {
		t.Fatalf("state: %v", m.State())
	}
	// The onEstablished hook runs once, before the SYN-ACK leaves.
	var sentAtHook []int
	if err := m.CompleteHandshake(func() { sentAtHook = append(sentAtHook, len(c.pkts)) }); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateEstablished {
		t.Fatalf("state: %v", m.State())
	}
	if len(sentAtHook) != 1 || sentAtHook[0] != 0 {
		t.Errorf("packets sent when the hook ran: %v, want [0]", sentAtHook)
	}
	sa := c.last()
	if sa == nil || !sa.TCP.Has(packet.FlagSYN|packet.FlagACK) {
		t.Fatalf("no SYN-ACK: %v", sa)
	}
	if sa.TCP.Ack != 1001 {
		t.Errorf("ack %d, want 1001 (SYN consumes one)", sa.TCP.Ack)
	}
	if sa.TCP.Seq != 5000 {
		t.Errorf("seq %d, want iss 5000", sa.TCP.Seq)
	}
	mss, ok := packet.ParseMSS(sa.TCP.Options)
	if !ok || mss != DefaultMSS {
		t.Errorf("MSS: %d %v (§3.4 requires 1460)", mss, ok)
	}
	if sa.TCP.Window != DefaultWindow {
		t.Errorf("window: %d, want 65535 (§3.4)", sa.TCP.Window)
	}
	// SYN-ACK travels server -> app.
	if sa.Src() != serverAP || sa.Dst() != appAP {
		t.Errorf("direction: %v -> %v", sa.Src(), sa.Dst())
	}
}

func TestDoubleHandshakeRejected(t *testing.T) {
	m, _ := established(t)
	ran := false
	if err := m.CompleteHandshake(func() { ran = true }); !errors.Is(err, ErrBadState) {
		t.Errorf("got %v", err)
	}
	if ran {
		t.Error("onEstablished ran for a rejected handshake")
	}
}

func TestRefuseEmitsRST(t *testing.T) {
	m, c := newSM(t)
	m.Refuse()
	if m.State() != StateClosed {
		t.Errorf("state: %v", m.State())
	}
	if !c.last().TCP.Has(packet.FlagRST) {
		t.Error("no RST emitted")
	}
}

func TestOnDataInOrder(t *testing.T) {
	m, _ := established(t)
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK|packet.FlagPSH, 1001, 5001, 65535, nil, []byte("hello"))
	data, err := m.OnData(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Errorf("data: %q", data)
	}
	// Next segment continues the stream.
	d2 := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1006, 5001, 65535, nil, []byte("world"))
	data, err = m.OnData(d2)
	if err != nil || string(data) != "world" {
		t.Errorf("second segment: %q %v", data, err)
	}
}

func TestOnDataRetransmissionTrimmed(t *testing.T) {
	m, _ := established(t)
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 5001, 65535, nil, []byte("abcde"))
	if _, err := m.OnData(d); err != nil {
		t.Fatal(err)
	}
	// Retransmission overlapping 3 old bytes plus 2 new ones.
	d2 := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1003, 5001, 65535, nil, []byte("cdeFG"))
	data, err := m.OnData(d2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "FG" {
		t.Errorf("trimmed data: %q, want FG", data)
	}
}

func TestOnDataFullDuplicate(t *testing.T) {
	m, _ := established(t)
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 5001, 65535, nil, []byte("abc"))
	if _, err := m.OnData(d); err != nil {
		t.Fatal(err)
	}
	dup := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 5001, 65535, nil, []byte("abc"))
	if _, err := m.OnData(dup); !errors.Is(err, ErrStaleData) {
		t.Errorf("got %v", err)
	}
}

func TestOnDataGapIsError(t *testing.T) {
	m, _ := established(t)
	gap := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 2000, 5001, 65535, nil, []byte("x"))
	if _, err := m.OnData(gap); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("got %v (the tunnel link cannot reorder, §3.4)", err)
	}
}

func TestAckAppAcksEverythingReceived(t *testing.T) {
	m, c := established(t)
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 5001, 65535, nil, []byte("12345678"))
	if _, err := m.OnData(d); err != nil {
		t.Fatal(err)
	}
	if err := m.AckApp(); err != nil {
		t.Fatal(err)
	}
	ack := c.last()
	if !ack.TCP.Has(packet.FlagACK) || ack.TCP.Has(packet.FlagPSH) || len(ack.Payload) != 0 {
		t.Errorf("not a pure ACK: %v", ack)
	}
	if ack.TCP.Ack != 1009 {
		t.Errorf("ack %d, want 1009", ack.TCP.Ack)
	}
}

func TestSendDataSegmentsAtMSS(t *testing.T) {
	m, c := established(t)
	payload := make([]byte, DefaultMSS*2+100)
	if err := m.SendData(payload); err != nil {
		t.Fatal(err)
	}
	var dataPkts []*packet.Packet
	for _, p := range c.pkts {
		if len(p.Payload) > 0 {
			dataPkts = append(dataPkts, p)
		}
	}
	if len(dataPkts) != 3 {
		t.Fatalf("segments: %d, want 3", len(dataPkts))
	}
	if len(dataPkts[0].Payload) != DefaultMSS || len(dataPkts[2].Payload) != 100 {
		t.Errorf("segment sizes: %d %d %d", len(dataPkts[0].Payload), len(dataPkts[1].Payload), len(dataPkts[2].Payload))
	}
	// Sequence numbers are contiguous: no window pacing (§3.4).
	if dataPkts[1].TCP.Seq != dataPkts[0].TCP.Seq+uint32(DefaultMSS) {
		t.Error("segment seqs not contiguous")
	}
	st := m.Stats()
	if st.BytesToApp != int64(len(payload)) {
		t.Errorf("BytesToApp: %d", st.BytesToApp)
	}
}

func TestAppCloseThenServerClose(t *testing.T) {
	m, c := established(t)
	fin := packet.TCPPacket(appAP, serverAP, packet.FlagFIN|packet.FlagACK, 1001, 5001, 65535, nil, nil)
	if _, err := m.OnFIN(fin); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateAppClosed {
		t.Fatalf("state: %v", m.State())
	}
	// The FIN must be acknowledged with rcvNxt advanced by one.
	ack := c.last()
	if ack.TCP.Ack != 1002 {
		t.Errorf("FIN ack %d, want 1002", ack.TCP.Ack)
	}
	if err := m.SendFIN(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateClosed {
		t.Fatalf("final state: %v", m.State())
	}
	if !c.last().TCP.Has(packet.FlagFIN) {
		t.Error("no FIN emitted")
	}
}

func TestServerCloseThenAppClose(t *testing.T) {
	m, _ := established(t)
	if err := m.SendFIN(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateNetClosed {
		t.Fatalf("state: %v", m.State())
	}
	// Data can still flow app -> server in NET_CLOSED.
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 0, 65535, nil, []byte("last"))
	if _, err := m.OnData(d); err != nil {
		t.Fatalf("half-closed data: %v", err)
	}
	fin := packet.TCPPacket(appAP, serverAP, packet.FlagFIN|packet.FlagACK, 1005, 0, 65535, nil, nil)
	if _, err := m.OnFIN(fin); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateClosed {
		t.Fatalf("final state: %v", m.State())
	}
}

func TestFINWithPayloadRelaysData(t *testing.T) {
	m, _ := established(t)
	fin := packet.TCPPacket(appAP, serverAP, packet.FlagFIN|packet.FlagACK|packet.FlagPSH, 1001, 5001, 65535, nil, []byte("bye"))
	data, err := m.OnFIN(fin)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "bye" {
		t.Errorf("FIN payload: %q", data)
	}
}

func TestRSTPaths(t *testing.T) {
	m, c := established(t)
	m.SendRST()
	if m.State() != StateClosed || !c.last().TCP.Has(packet.FlagRST) {
		t.Error("SendRST failed")
	}
	// Operations after close are rejected.
	if err := m.SendData([]byte("x")); !errors.Is(err, ErrBadState) {
		t.Errorf("SendData after RST: %v", err)
	}
	if err := m.AckApp(); !errors.Is(err, ErrBadState) {
		t.Errorf("AckApp after RST: %v", err)
	}
}

func TestOnRSTSilent(t *testing.T) {
	m, c := established(t)
	before := len(c.pkts)
	m.OnRST()
	if m.State() != StateClosed {
		t.Errorf("state: %v", m.State())
	}
	if len(c.pkts) != before {
		t.Error("OnRST emitted packets; the app is already gone")
	}
}

func TestPureACKCounted(t *testing.T) {
	m, _ := established(t)
	m.OnPureACK()
	m.OnPureACK()
	if got := m.Stats().PureACKsDropped; got != 2 {
		t.Errorf("PureACKsDropped: %d", got)
	}
}

func TestDataBeforeHandshakeRejected(t *testing.T) {
	m, _ := newSM(t)
	d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, 1001, 0, 65535, nil, []byte("early"))
	if _, err := m.OnData(d); !errors.Is(err, ErrBadState) {
		t.Errorf("got %v", err)
	}
}

// Property: for any split of a byte stream into segments, the machine
// reassembles exactly the original stream and the sequence numbers of
// emitted data packets tile [iss+1, iss+1+len).
func TestQuickStreamReassembly(t *testing.T) {
	f := func(seed int64, total uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(total%4096) + 1
		stream := make([]byte, n)
		r.Read(stream)
		c := &collector{}
		m, err := New(synPacket(42), 99, c.emit)
		if err != nil {
			return false
		}
		if m.CompleteHandshake() != nil {
			return false
		}
		var rebuilt []byte
		seq := uint32(43)
		for off := 0; off < n; {
			segLen := r.Intn(1460) + 1
			if off+segLen > n {
				segLen = n - off
			}
			p := packet.TCPPacket(appAP, serverAP, packet.FlagACK, seq, 100, 65535, nil, stream[off:off+segLen])
			data, err := m.OnData(p)
			if err != nil {
				return false
			}
			rebuilt = append(rebuilt, data...)
			seq += uint32(segLen)
			off += segLen
		}
		return string(rebuilt) == string(stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: SendData emits segments whose payloads concatenate to the
// input for any size.
func TestQuickSendDataSegmentation(t *testing.T) {
	f := func(seed int64, total uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(total % 8192)
		payload := make([]byte, n)
		r.Read(payload)
		c := &collector{}
		m, err := New(synPacket(1), 7, c.emit)
		if err != nil || m.CompleteHandshake() != nil {
			return false
		}
		c.pkts = nil
		if m.SendData(payload) != nil {
			return false
		}
		var rebuilt []byte
		for _, p := range c.pkts {
			if len(p.Payload) > DefaultMSS {
				return false
			}
			rebuilt = append(rebuilt, p.Payload...)
		}
		return string(rebuilt) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: state machine never panics under random event sequences and
// always lands in a defined state.
func TestQuickRandomEventSequences(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := &collector{}
		m, err := New(synPacket(10), 20, c.emit)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			switch r.Intn(8) {
			case 0:
				_ = m.CompleteHandshake()
			case 1:
				d := packet.TCPPacket(appAP, serverAP, packet.FlagACK, r.Uint32(), 0, 65535, nil, []byte("x"))
				_, _ = m.OnData(d)
			case 2:
				_ = m.AckApp()
			case 3:
				_ = m.SendData([]byte("abc"))
			case 4:
				fin := packet.TCPPacket(appAP, serverAP, packet.FlagFIN, r.Uint32(), 0, 65535, nil, nil)
				_, _ = m.OnFIN(fin)
			case 5:
				_ = m.SendFIN()
			case 6:
				m.SendRST()
			case 7:
				m.OnPureACK()
			}
		}
		switch m.State() {
		case StateSynReceived, StateEstablished, StateAppClosed, StateNetClosed, StateClosed:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateSynReceived: "SYN_RECEIVED",
		StateEstablished: "ESTABLISHED",
		StateAppClosed:   "APP_CLOSED",
		StateNetClosed:   "NET_CLOSED",
		StateClosed:      "CLOSED",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d: %q", s, s.String())
		}
	}
}

// TestSteadyStateAllocs pins the per-segment cost of the calls the
// relay makes for every echo at zero: SendData (of one MSS, and of two
// full segments and a tail) and the ACK that follows a socket write
// build their Packets in segPool. Under the race detector the pool
// drops Packets at random, so the bound there is one allocation per
// segment. The emit here does what the engine's does — encode into a
// buffer it already owns — so the count is the machine's alone.
func TestSteadyStateAllocs(t *testing.T) {
	scratch := make([]byte, 0, 1500)
	m, err := New(synPacket(1000), 5000, func(p *packet.Packet) {
		if _, err := p.AppendEncode(scratch); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CompleteHandshake(); err != nil {
		t.Fatal(err)
	}
	perSeg := 0.0
	if raceEnabled {
		perSeg = 1
	}
	send := func(data []byte) func() {
		return func() {
			if err := m.SendData(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	ack := func() {
		if err := m.AckApp(); err != nil {
			t.Fatal(err)
		}
	}
	bulk := send(make([]byte, 2*DefaultMSS+100))
	for _, c := range []struct {
		name string
		segs int
		run  func()
	}{
		{"SendData of one MSS", 1, send(make([]byte, DefaultMSS))},
		{"AckApp", 1, ack},
		{"SendData(2*MSS+100) + AckApp", 4, func() { bulk(); ack() }},
	} {
		if allocs := testing.AllocsPerRun(1000, c.run); allocs > perSeg*float64(c.segs) {
			t.Errorf("%s allocs/op = %v, want <= %v", c.name, allocs, perSeg*float64(c.segs))
		}
	}
}
