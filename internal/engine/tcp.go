package engine

import (
	"errors"
	"time"

	"repro/internal/measure"
	"repro/internal/packet"
	"repro/internal/relay"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
)

// Tunnel-packet and socket-event handling (§2.3), shared by the single
// MainWorker loop and the sharded multi-worker pipeline. Handlers for
// one flow always run on one thread (MainWorker, or the flow's pinned
// worker), so the only cross-thread state they touch — the flow table,
// the counters, the traffic book, the stores — is individually
// synchronised.

// handleTunnelPacket decodes one tunnel packet into the calling
// worker's Packet, processes it, and releases raw to the device unless
// the packet's data now waits in a socket write buffer, which keeps raw
// until the socket write. Reusing the Packet is safe because no handler
// keeps it past the call: tcpsm.New copies the fields it needs, OnData
// and OnFIN return a slice of raw that the write buffer keeps with raw,
// and the UDP relay copies its payload (DESIGN.md, "Buffer ownership on
// the relay path").
func (e *Engine) handleTunnelPacket(w *worker, raw []byte) {
	if err := packet.DecodeInto(&w.pkt, raw); err != nil {
		e.ctr.decodeErrors.Add(1)
		e.dev.Release(raw)
		return
	}
	if !e.processPacket(&w.pkt, raw) {
		e.dev.Release(raw)
	}
}

// processPacket implements §2.3's tunnel-packet processing for an
// already-decoded packet. It reports whether a write buffer kept raw.
func (e *Engine) processPacket(pkt *packet.Packet, raw []byte) (kept bool) {
	e.ctr.packetsFromTun.Add(1)
	if e.cfg.PerPacketCost > 0 {
		e.clk.SleepFine(e.cfg.PerPacketCost)
		e.meter.AddInspected(1)
	}
	e.meter.AddPackets(1, int64(len(raw)))

	switch {
	case pkt.IsTCP():
		return e.handleTunnelTCP(pkt, raw)
	case pkt.IsUDP():
		e.handleTunnelUDP(pkt)
	}
	return false
}

func (e *Engine) handleTunnelTCP(pkt *packet.Packet, raw []byte) (kept bool) {
	flow := packet.Flow(pkt)
	t := pkt.TCP

	cl, _ := e.flows.Get(flow)

	switch {
	case t.Has(packet.FlagSYN) && !t.Has(packet.FlagACK):
		if cl != nil {
			return false // SYN retransmission while connect in flight
		}
		e.onSYN(pkt, flow)

	case t.Has(packet.FlagRST):
		if cl == nil {
			return false
		}
		// §2.3 TCP RST: close the external connection, drop the client.
		cl.SM.OnRST()
		e.removeClient(cl)
		if ch := cl.Ch(); ch != nil {
			ch.Reset()
		}

	case t.Has(packet.FlagFIN):
		if cl == nil {
			return false
		}
		data, err := cl.SM.OnFIN(pkt)
		if err == nil && len(data) > 0 {
			cl.EnqueueWrite(data, raw)
			kept = true
		}
		cl.RequestHalfClose()
		e.triggerWrite(cl)

	case len(pkt.Payload) > 0:
		if cl == nil {
			return false
		}
		data, err := cl.SM.OnData(pkt)
		if err != nil || len(data) == 0 {
			return false
		}
		e.ctr.bytesUp.Add(int64(len(data)))
		cl.EnqueueWrite(data, raw)
		e.triggerWrite(cl)
		return true

	default:
		// Pure ACK: discarded, nothing to relay (§2.3).
		if cl != nil {
			cl.SM.OnPureACK()
		}
		e.ctr.pureACKs.Add(1)
	}
	return kept
}

// triggerWrite raises the socket write event for a client whose buffer
// has data (or a pending half close). Before the external connection
// exists the data simply waits in the buffer; the socket-connect thread
// triggers the flush after registering.
func (e *Engine) triggerWrite(cl *relay.TCPClient) {
	if k, ch := cl.Key(), cl.Ch(); k != nil && ch != nil && ch.Connected() {
		k.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}
}

// onSYN creates the state machine and client and starts the temporary
// socket-connect thread (§2.4).
func (e *Engine) onSYN(pkt *packet.Packet, flow packet.FlowKey) {
	e.rngMu.Lock()
	iss := e.rng.Uint32()
	e.rngMu.Unlock()
	sm, err := newMachine(pkt, iss, e.emit)
	if err != nil {
		return
	}
	cl := relay.NewTCPClient(flow, sm, e.clk.Nanos())
	cl.Shard = e.flows.Shard(flow)
	e.ctr.syns.Add(1)
	e.flows.Put(flow, cl)
	e.meter.ObserveConns(e.flows.Len())

	if e.cfg.Mapping == MapEager {
		// Pre-§3.3 behaviour: parse on the main thread, per SYN.
		e.attribute(cl)
	}
	if e.cfg.Protect == ProtectPerSocketMainThread {
		// Naive placement: the protect cost lands on MainWorker,
		// stalling every other flow (§3.5.2).
		ch := e.prov.Open()
		ch.Protect()
		cl.SetCh(ch)
	}

	if e.cfg.BlockingConnectMeasure {
		go e.socketConnectBlocking(cl)
	} else {
		e.socketConnectEventDriven(cl)
	}
}

// socketConnectBlocking is the temporary socket-connect thread: blocking
// connect with timestamps immediately around the call (§2.4), then the
// internal handshake, deferred selector registration (§3.4), and lazy
// mapping (§3.3).
func (e *Engine) socketConnectBlocking(cl *relay.TCPClient) {
	// The temporary thread pays its spawn/scheduling latency first;
	// the measurement timestamps below are unaffected (§2.4's design
	// keeps them immediately around the connect call).
	e.prov.ChargeThreadSpawn()
	ch := cl.Ch()
	if ch == nil {
		ch = e.prov.Open()
		cl.SetCh(ch)
	}
	if e.cfg.Protect == ProtectPerSocket {
		// §3.5.2 mitigation for pre-5.0: pay protect() here so only
		// this connection's SYN is delayed.
		ch.Protect()
	}
	t0 := e.clk.Nanos()
	err := ch.Connect(cl.Flow.Dst)
	t1 := e.clk.Nanos()
	if !e.admitConnect() {
		ch.Close()
		return
	}
	defer e.connect.Done()
	if err != nil {
		e.connectFailed(cl)
		return
	}
	// Only after establishing the external connection is the handshake
	// with the app completed (§2.3).
	if err := cl.SM.CompleteHandshake(); err != nil {
		e.removeClient(cl)
		ch.Close()
		return
	}
	e.ctr.established.Add(1)

	// DeferRegister or not, registration happens here in blocking mode;
	// the §3.4 cost model is identical either way. The key lands on the
	// selector of the worker that owns this flow's shard (the shared
	// selector at Workers=1), pinning readiness delivery to the thread
	// that relays the flow.
	key := e.selectorFor(cl.Shard).Register(ch, sockets.OpRead, cl)
	cl.SetKey(key)
	if cl.PendingWrites() || cl.HalfCloseRequested() {
		key.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}

	// Lazy mapping: after the connection is established or failed, so
	// the app-side handshake is never delayed (§3.3).
	if e.cfg.Mapping != MapEager {
		e.attribute(cl)
	}
	e.recordTCP(cl, time.Duration(t1-t0))
}

// socketConnectEventDriven is the pre-§2.4 alternative: non-blocking
// connect whose completion is observed through the selector, inheriting
// dispatch latency into the RTT (the inaccuracy Table 2 shows for
// MobiPerf-style measurement).
func (e *Engine) socketConnectEventDriven(cl *relay.TCPClient) {
	ch := cl.Ch()
	if ch == nil {
		ch = e.prov.Open()
		cl.SetCh(ch)
	}
	if e.cfg.Protect == ProtectPerSocket {
		ch.Protect()
	}
	key := e.selectorFor(cl.Shard).Register(ch, sockets.OpRead|sockets.OpConnect, cl)
	cl.SetKey(key)
	connStart := e.clk.Nanos()
	key.Attach(&eventConnect{client: cl, start: connStart})
	if err := ch.ConnectNonBlocking(cl.Flow.Dst); err != nil {
		e.connectFailed(cl)
	}
}

// eventConnect carries the non-blocking connect context on the key.
type eventConnect struct {
	client *relay.TCPClient
	start  int64
}

// connectFailed counts a failed external connect, tears the relay
// state down and only then refuses the app, so an app that sees the RST
// also sees the failure in the engine's counters.
func (e *Engine) connectFailed(cl *relay.TCPClient) {
	e.ctr.connectFailures.Add(1)
	e.removeClient(cl)
	if ch := cl.Ch(); ch != nil {
		ch.Close()
	}
	cl.SM.Refuse()
}

func (e *Engine) removeClient(cl *relay.TCPClient) {
	if !cl.MarkRemoved() {
		return
	}
	// Fold the connection's volume into the per-app accounting; the
	// attribution is final by now (mapping runs before any teardown
	// path a healthy connection takes).
	st := cl.SM.Stats()
	_, app := cl.AppInfo()
	e.traffic.volume(app, st.BytesFromApp, st.BytesToApp)
	e.flows.Delete(cl.Flow)
}

// recordTCP stores one per-app RTT measurement via the engine's emit
// point (emit.go), which also feeds the subscriber broadcast.
func (e *Engine) recordTCP(cl *relay.TCPClient, rtt time.Duration) {
	e.ctr.tcpMeasurements.Add(1)
	uid, app := cl.AppInfo()
	e.traffic.connection(app)
	e.record(measure.KindTCP, app, uid, cl.Flow.Dst, "", rtt)
}

// handleSocketKey processes §2.3's socket events on the calling
// worker, claiming the key's readiness (ReadyOps is consume-once).
func (e *Engine) handleSocketKey(w *worker, k *sockets.SelectionKey) {
	ready := k.ReadyOps()
	if ready == 0 {
		return
	}
	var cl *relay.TCPClient
	switch a := k.Attachment().(type) {
	case *relay.TCPClient:
		cl = a
	case *eventConnect:
		cl = a.client
		if ready&sockets.OpConnect != 0 {
			e.finishEventConnect(k, a)
			ready &^= sockets.OpConnect
		}
	default:
		return
	}
	if cl == nil || cl.Removed() {
		return
	}
	if ready&sockets.OpRead != 0 {
		e.socketRead(w, cl)
	}
	if ready&sockets.OpWrite != 0 {
		e.socketWrite(cl)
	}
}

// finishEventConnect completes a non-blocking connect observed via the
// selector.
func (e *Engine) finishEventConnect(k *sockets.SelectionKey, ec *eventConnect) {
	cl := ec.client
	ch := cl.Ch()
	now := e.clk.Nanos()
	if err := ch.FinishConnect(); err != nil {
		if errors.Is(err, sockets.ErrConnPending) {
			return
		}
		e.connectFailed(cl)
		return
	}
	if err := cl.SM.CompleteHandshake(); err != nil {
		e.removeClient(cl)
		ch.Close()
		return
	}
	e.ctr.established.Add(1)
	k.Attach(cl)
	k.SetInterestOps(sockets.OpRead)
	if cl.PendingWrites() || cl.HalfCloseRequested() {
		k.SetInterestOps(sockets.OpRead | sockets.OpWrite)
	}
	if e.cfg.Mapping != MapEager {
		e.attribute(cl)
	}
	// The RTT includes selector dispatch latency — the inaccuracy the
	// blocking socket-connect thread eliminates.
	e.recordTCP(cl, time.Duration(now-ec.start))
}

// socketRead handles §2.3 Socket Read: drain incoming server data into
// internal-connection data packets; on EOF generate FIN, once the flow
// is attributed (HoldFIN); on reset generate RST. Every flow of the
// worker reads into the worker's one buffer: SendData lends it to emit,
// which has encoded the bytes into a pooled buffer of their own before
// the next Read overwrites them.
func (e *Engine) socketRead(w *worker, cl *relay.TCPClient) {
	ch := cl.Ch()
	buf := w.readBuf[:]
	for {
		n, err := ch.Read(buf)
		if n > 0 {
			e.ctr.bytesDown.Add(int64(n))
			segs := int64((n + tcpsm.DefaultMSS - 1) / tcpsm.DefaultMSS)
			e.meter.AddPackets(segs, int64(n))
			if e.cfg.PerPacketCost > 0 {
				e.meter.AddInspected(segs)
			}
			if serr := cl.SM.SendData(buf[:n]); serr != nil {
				return
			}
			continue
		}
		switch {
		case err == nil:
			return // would block; wait for the next read event
		case errors.Is(err, sockets.ErrEOF):
			if !cl.HoldFIN() {
				e.sendFIN(cl)
			}
			return
		default:
			cl.SM.SendRST()
			e.removeClient(cl)
			ch.Close()
			return
		}
	}
}

// socketWrite handles §2.3 Socket Write: flush the write buffer to the
// server, then instruct the state machine to ACK the app; on a pending
// half close, half-close the external connection and clear write
// interest. Each write's tunnel buffer goes back to the device once its
// data is on the socket (the socket copies it).
func (e *Engine) socketWrite(cl *relay.TCPClient) {
	ch := cl.Ch()
	bufs := cl.TakeWrites()
	wrote := false
	for _, b := range bufs {
		if _, err := ch.Write(b.Data); err != nil {
			cl.SM.SendRST()
			e.removeClient(cl)
			ch.Close()
			return
		}
		e.dev.Release(b.Buf)
		wrote = true
	}
	cl.ReleaseWrites(bufs)
	if wrote {
		_ = cl.SM.AckApp()
	}
	if cl.HalfCloseRequested() && !cl.PendingWrites() {
		_ = ch.CloseWrite()
		e.maybeFinish(cl)
	}
	if k := cl.Key(); k != nil {
		k.SetInterestOps(sockets.OpRead)
	}
}

// attribute maps the flow to its app (§3.3), then sends the FIN toward
// the app if the server's EOF came first and it was held for this.
func (e *Engine) attribute(cl *relay.TCPClient) {
	info, _ := e.mapper.resolve(cl.Flow.Src, cl.Flow.Dst, cl.SYNAt)
	if cl.SetApp(info.UID, info.Name) {
		e.sendFIN(cl)
	}
}

// sendFIN relays the server's EOF to the app (§2.3 Socket Read).
func (e *Engine) sendFIN(cl *relay.TCPClient) {
	_ = cl.SM.SendFIN()
	e.maybeFinish(cl)
}

// maybeFinish removes clients whose both directions have finished.
func (e *Engine) maybeFinish(cl *relay.TCPClient) {
	if cl.SM.State() == tcpsm.StateClosed {
		e.removeClient(cl)
		if ch := cl.Ch(); ch != nil {
			ch.Close()
		}
	}
}
