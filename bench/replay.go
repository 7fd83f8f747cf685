package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"time"

	"repro/internal/clock"
	"repro/internal/crowd"
	"repro/internal/flowtable"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/procnet"
	"repro/internal/sketch"
	"repro/internal/sockets"
	"repro/internal/tcpsm"
	"repro/internal/testbed"
	"repro/internal/tun"
)

// This file is the second per-layer source: layer replay. What the
// traced pass captured at the seams (raw packets in both directions)
// and what the collector workload generates (batches) is pushed through
// each module's exported functions in isolation, timing ns/op and
// counting allocs/op. Visit counts come from the public counters, so
// cost × visits can be set against the measured end-to-end CPU
// (layers.go, the reconciliation rows).

// cost is one replayed operation's price.
type cost struct {
	ns     float64
	allocs float64
	n      int
}

// microbench times fn(0..n-1) after a warm-up of fn(n..n+warmup(n)-1):
// every call sees its own index, so one-shot operations (connect,
// register, append) can be replayed as well as repeatable ones. Mallocs
// is read with the world stopped on both sides, so allocs/op is exact.
func microbench(n int, fn func(i int)) cost {
	for i := 0; i < warmup(n); i++ {
		fn(n + i)
	}
	// Start every replay from a collected heap, so one layer's garbage
	// is not collected on the next layer's clock.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return cost{
		ns:     float64(d.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
		n:      n,
	}
}

func warmup(n int) int { return n/10 + 1 }

// replayer scales every replay's iteration count: 1 at benchmark sizes,
// less when the whole run is scaled down (the smoke test).
type replayer struct{ iters float64 }

func (rp replayer) count(n int) int { return max(50, int(float64(n)*rp.iters)) }

func (rp replayer) bench(n int, fn func(i int)) cost { return microbench(rp.count(n), fn) }

// sink keeps results alive so the compiler cannot drop a replayed call.
var sink any

// engineReplay is every engine-path layer's replayed cost on one
// workload's captured traffic.
type engineReplay struct {
	peek, decode, encode, verify cost
	tunRead, tunWrite            cost
	ftGet, ftPutDelete           cost
	handshake, smData, smSend    cost
	register, connect, selectKey cost
	procLookup                   cost
	storeAdd, storeAddSub        cost

	// dataShareUp/Down is the share of captured packets that carry
	// payload.
	dataShareUp, dataShareDown float64
}

const replayWindow = 4096 // captured packets cycled through per replay

// replayEngine runs the engine-path replays. live is the workload's
// standing flow count (the table and selector population that matters);
// batched selects the TUN calls the engine topology really makes.
func (rp replayer) replayEngine(c *capture, live int, batched bool) (*engineReplay, error) {
	from, to := window(c.fromTun), window(c.toTun)
	if len(from) == 0 || len(to) == 0 {
		return nil, fmt.Errorf("replay: traced pass captured %d/%d packets", len(c.fromTun), len(c.toTun))
	}
	r := &engineReplay{}

	// packet: the engine peeks (sharded reader only), decodes and
	// verifies what it reads, and encodes what it writes.
	r.peek = rp.bench(200000, func(i int) {
		k, _ := packet.PeekFlowKey(from[i%len(from)])
		sink = k.Proto
	})
	r.decode = rp.bench(200000, func(i int) {
		p, _ := packet.Decode(from[i%len(from)])
		sink = p
	})
	r.verify = rp.bench(100000, func(i int) {
		sink = packet.VerifyChecksums(from[i%len(from)])
	})
	decodedTo := make([]*packet.Packet, 0, len(to))
	var segDown []byte
	var dataDown int
	for _, raw := range to {
		p, err := packet.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("replay: engine-written packet does not decode: %w", err)
		}
		decodedTo = append(decodedTo, p)
		if len(p.Payload) > 0 {
			dataDown++
			segDown = p.Payload
		}
	}
	buf := make([]byte, 0, 2048)
	r.encode = rp.bench(200000, func(i int) {
		b, _ := decodedTo[i%len(decodedTo)].AppendEncode(buf[:0])
		sink = len(b)
	})
	r.dataShareDown = float64(dataDown) / float64(len(to))

	var syn *packet.Packet
	var segUp []byte
	var dataUp int
	keys := make([]packet.FlowKey, 0, 1024)
	seen := make(map[packet.FlowKey]bool)
	for _, raw := range from {
		p, err := packet.Decode(raw)
		if err != nil || !p.IsTCP() {
			continue
		}
		if k := packet.Flow(p); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
		if len(p.Payload) > 0 {
			dataUp++
			segUp = append([]byte(nil), p.Payload...)
		}
		if syn == nil && p.TCP.Has(packet.FlagSYN) {
			syn = p
		}
	}
	r.dataShareUp = float64(dataUp) / float64(len(from))
	if segUp == nil || segDown == nil {
		return nil, fmt.Errorf("replay: no data segment captured")
	}

	r.tunRead, r.tunWrite = rp.replayTun(from, to, batched)
	r.ftGet, r.ftPutDelete = rp.replayFlowtable(keys, live)
	r.handshake, r.smData, r.smSend = rp.replayTCPSM(syn, segUp, segDown)
	var err error
	if r.register, r.connect, r.selectKey, err = rp.replaySockets(live); err != nil {
		return nil, err
	}
	r.procLookup = rp.replayProcnet(live)
	r.storeAdd, r.storeAddSub = rp.replayStore()
	return r, nil
}

func window(pkts [][]byte) [][]byte {
	if len(pkts) > replayWindow {
		// The tail of the capture is steady state; the head still holds
		// set-up stragglers.
		return pkts[len(pkts)-replayWindow:]
	}
	return pkts
}

// replayTun prices the raw device calls alone: fill the queue untimed,
// then time only the engine-side call. batched replays ReadBatch and
// WriteBatch (the sharded reader and the batched writer); otherwise the
// per-packet Read and Write the paper-faithful MainWorker path makes.
func (rp replayer) replayTun(from, to [][]byte, batched bool) (read, write cost) {
	const burst = 64
	rounds := rp.count(400)
	dev := tun.New(clock.NewReal(), 8192)
	dev.SetBlocking(true)
	defer dev.Close()
	in, out := make([][]byte, burst), make([][]byte, burst)
	var readNS, writeNS time.Duration
	for round := 0; round < rounds; round++ {
		for i := range out {
			_ = dev.InjectOutbound(from[(round*burst+i)%len(from)]) // queue cap 8192 ≫ burst: never drops
			out[i] = to[(round*burst+i)%len(to)]
		}
		t0 := time.Now()
		if batched {
			_, _ = dev.ReadBatch(in)
		} else {
			for i := range in {
				in[i], _ = dev.Read()
			}
		}
		t1 := time.Now()
		if batched {
			_, _ = dev.WriteBatch(out)
		} else {
			for _, p := range out {
				_ = dev.Write(p)
			}
		}
		t2 := time.Now()
		readNS += t1.Sub(t0)
		writeNS += t2.Sub(t1)
		for range out {
			_, _ = dev.ReadInbound()
		}
	}
	n := rounds * burst
	read = cost{ns: float64(readNS.Nanoseconds()) / float64(n), n: n}
	write = cost{ns: float64(writeNS.Nanoseconds()) / float64(n), n: n}
	return read, write
}

// replayFlowtable prices lookups and insert+delete on a table holding
// the workload's live flow count.
func (rp replayer) replayFlowtable(keys []packet.FlowKey, live int) (get, putDelete cost) {
	live = max(1, min(live, len(keys)))
	t := flowtable.New[int](0)
	for i := 0; i < live; i++ {
		t.Put(keys[i], i)
	}
	get = rp.bench(500000, func(i int) {
		v, _ := t.Get(keys[i%live])
		sink = v
	})
	// Churn a key the table does not hold, as a new flow would.
	extra := keys[len(keys)-1]
	extra.Src = netip.AddrPortFrom(extra.Src.Addr(), 1)
	putDelete = rp.bench(200000, func(i int) {
		t.Put(extra, i)
		t.Delete(extra)
	})
	return get, putDelete
}

// replayTCPSM prices the user-space TCP state machine: the tunnel-side
// handshake, an app data segment in (OnData + the ACK the engine sends
// once the socket write completes), a server segment out (SendData).
func (rp replayer) replayTCPSM(syn *packet.Packet, segUp, segDown []byte) (handshake, data, send cost) {
	if syn == nil {
		// Standing-flow workloads open every flow in set-up, before
		// capture starts; any well-formed SYN prices the handshake.
		syn = packet.TCPPacket(netip.AddrPortFrom(testbed.PhoneVPNAddr, 40000), netip.MustParseAddrPort(serverAddr(0)),
			packet.FlagSYN, 1000, 0, tcpsm.DefaultWindow, packet.MSSOption(tcpsm.DefaultMSS), nil)
	}
	emit := func(p *packet.Packet) { sink = p }
	handshake = rp.bench(100000, func(i int) {
		m, _ := tcpsm.New(syn, uint32(i), emit)
		_ = m.CompleteHandshake() // a fresh machine is always in SYN-RECEIVED
	})
	m, _ := tcpsm.New(syn, 1, emit)
	_ = m.CompleteHandshake()
	seq := syn.TCP.Seq + 1
	seg := packet.TCPPacket(syn.Src(), syn.Dst(), packet.FlagACK|packet.FlagPSH, seq, 2, tcpsm.DefaultWindow, nil, segUp)
	data = rp.bench(200000, func(i int) {
		seg.TCP.Seq = seq
		d, _ := m.OnData(seg)
		seq += uint32(len(d))
		_ = m.AckApp()
	})
	send = rp.bench(200000, func(i int) { _ = m.SendData(segDown) })
	return handshake, data, send
}

// replaySockets prices the socket layer against a loopback netsim echo
// server: a blocking external connect, a selector registration, and a
// Select that returns `live` ready keys (per key).
func (rp replayer) replaySockets(live int) (register, connect, selectKey cost, err error) {
	clk := clock.NewReal()
	net := netsim.New(clk, netsim.LinkParams{}, 1)
	net.SetLoopback(true)
	defer net.Close()
	dst := netip.MustParseAddrPort(serverAddr(0))
	net.HandleTCP(dst, netsim.EchoHandler())
	prov := sockets.NewProvider(net, clk, testbed.PhoneWANAddr, sockets.CostModel{}, 1)
	sel := prov.NewSelector()
	defer sel.Close()

	n := rp.count(4000)
	chans := make([]*sockets.Channel, n+warmup(n))
	for i := range chans {
		chans[i] = prov.Open()
	}
	var failed error
	connect = microbench(n, func(i int) {
		if e := chans[i].Connect(dst); e != nil {
			failed = e
		}
	})
	if failed != nil {
		return cost{}, cost{}, cost{}, fmt.Errorf("replay: sockets connect: %w", failed)
	}
	regSel := prov.NewSelector()
	register = microbench(n, func(i int) {
		sink = regSel.Register(chans[i], sockets.OpRead, nil)
	})
	regSel.Close()
	live = max(1, min(live, n))
	for _, ch := range chans[live:] {
		ch.Close()
	}
	chans = chans[:live]

	keys := make([]*sockets.SelectionKey, len(chans))
	for i, ch := range chans {
		keys[i] = sel.Register(ch, sockets.OpRead, nil)
	}
	rounds := rp.count(300)
	var total time.Duration
	buf := make([]byte, 64)
	for r := 0; r < rounds; r++ {
		for _, ch := range chans {
			if _, e := ch.Write(buf[:1]); e != nil {
				return cost{}, cost{}, cost{}, fmt.Errorf("replay: sockets write: %w", e)
			}
		}
		for deadline := time.Now().Add(5 * time.Second); sel.Stats().ReadyDepth < len(chans); {
			if time.Now().After(deadline) {
				return cost{}, cost{}, cost{}, fmt.Errorf("replay: echoes did not mark %d keys ready", len(chans))
			}
			runtime.Gosched()
		}
		t0 := time.Now()
		ready := sel.Select()
		total += time.Since(t0)
		for _, k := range ready {
			k.ReadyOps()
			for {
				if m, _ := k.Channel().Read(buf); m == 0 {
					break
				}
			}
		}
	}
	for _, ch := range chans {
		ch.Close()
	}
	per := rounds * len(chans)
	selectKey = cost{ns: float64(total.Nanoseconds()) / float64(per), n: per}
	return register, connect, selectKey, nil
}

// replayProcnet prices one lazy-mapping lookup: render and parse the
// tcp and tcp6 tables holding the workload's live connection count.
func (rp replayer) replayProcnet(live int) cost {
	table := procnet.NewTable()
	for i := 0; i < live; i++ {
		table.Add(procnet.Entry{
			Proto:  procnet.TCP,
			Local:  netip.AddrPortFrom(testbed.PhoneVPNAddr, uint16(40000+i)),
			Remote: netip.MustParseAddrPort(serverAddr(i % apps)),
			State:  procnet.StateEstablished,
			UID:    baseUID + i%apps,
		})
	}
	rd := procnet.NewReader(table, clock.NewReal(), procnet.CostModel{}, 1)
	return rp.bench(2000, func(int) {
		e, _ := rd.ParseAll()
		sink = e
	})
}

// replayStore prices measure.Store.Add with no subscriber and with one
// whose ring is large enough never to drop.
func (rp replayer) replayStore() (add, addSub cost) {
	n := rp.count(100000)
	rec, _ := syntheticRecord(rand.New(rand.NewSource(1)), 0)
	st := measure.NewStore()
	add = microbench(n, func(int) { st.Add(rec) })
	st = measure.NewStore()
	sub := st.Subscribe(2*n, nil)
	addSub = microbench(n, func(int) { st.Add(rec) })
	sub.Close()
	return add, addSub
}

// collectorReplay is every collector-path layer's replayed cost.
type collectorReplay struct {
	encodeBatch, decodeBatch     cost
	bytesPerRecord               float64
	commit, spoolAppend, summary cost
	spoolBytesPerRecord          float64
	skAdd, skQuantile, skMerge   cost
	skBins                       int
}

// replayCollector runs the collector-path replays over batches shaped
// like the workload's. dir is a scratch directory for the two spools.
func (rp replayer) replayCollector(seed int64, recordsPerBatch int, dir string) (*collectorReplay, error) {
	n := rp.count(5000)
	rng := rand.New(rand.NewSource(seed))
	batches := make([]measure.Batch, n)
	raws := make([][]byte, n)
	var wire int
	for i := range batches {
		b := measure.Batch{Device: fmt.Sprintf("replay-%05d", i), Key: fmt.Sprintf("replay-%05d/b0", i), Seq: 1}
		for k := 0; k < recordsPerBatch; k++ {
			rec, _ := syntheticRecord(rng, i)
			b.Records = append(b.Records, rec)
		}
		var buf bytes.Buffer
		if err := measure.EncodeBatch(&buf, b); err != nil {
			return nil, err
		}
		batches[i], raws[i] = b, buf.Bytes()
		wire += buf.Len()
	}
	r := &collectorReplay{bytesPerRecord: float64(wire) / float64(n*recordsPerBatch)}

	var buf bytes.Buffer
	r.encodeBatch = microbench(n, func(i int) {
		buf.Reset()
		_ = measure.EncodeBatch(&buf, batches[i%n]) // writes to a bytes.Buffer cannot fail
	})
	r.decodeBatch = microbench(n, func(i int) {
		b, _ := measure.DecodeBatch(bytes.NewReader(raws[i%n]))
		sink = b.Key
	})

	// crowd.commit: the whole upload handler — wire decode, shard
	// route, dedup, spool append, sketch update — with no HTTP stack.
	srvDir, err := os.MkdirTemp(dir, "replay-srv-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(srvDir)
	srv, err := crowd.NewServer(crowd.ServerOptions{SpoolDir: srvDir, RetainRecords: crowd.RetainOff})
	if err != nil {
		return nil, err
	}
	reqs := make([]*http.Request, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(raws[i]))
		reqs[i].Header.Set("Content-Type", measure.BatchContentType)
		reqs[i].Header.Set(crowd.DeviceHeader, batches[i].Device)
	}
	var commitNS time.Duration
	for i, req := range reqs {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		commitNS += time.Since(t0)
		if rec.Code != http.StatusOK {
			srv.Close()
			return nil, fmt.Errorf("replay: upload %d answered %d: %s", i, rec.Code, rec.Body)
		}
	}
	r.commit = cost{ns: float64(commitNS.Nanoseconds()) / float64(n), n: n}
	r.summary = rp.bench(200, func(int) { sink = srv.Summary().TCPRecords })
	if err := srv.Close(); err != nil {
		return nil, err
	}

	spoolDir, err := os.MkdirTemp(dir, "replay-spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spoolDir)
	spool, _, err := crowd.OpenSpool(spoolDir)
	if err != nil {
		return nil, err
	}
	var appendErr error
	appended := n - warmup(n)
	r.spoolAppend = microbench(appended, func(i int) {
		if e := spool.Append(batches[i]); e != nil {
			appendErr = e
		}
	})
	appended += warmup(appended)
	r.spoolBytesPerRecord = float64(spool.Stats().Bytes) / float64(appended*recordsPerBatch)
	if err := spool.Close(); err != nil || appendErr != nil {
		return nil, fmt.Errorf("replay: spool: append %v, close %v", appendErr, err)
	}

	// sketch: Add on the workload's RTT distribution, then the two
	// operations a stats read performs.
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = 8 + 60*rng.ExpFloat64()
	}
	sk := sketch.New(0)
	r.skAdd = rp.bench(1000000, func(i int) { sk.Add(vals[i&(len(vals)-1)]) })
	r.skQuantile = rp.bench(20000, func(i int) { sink = sk.Quantile(0.5) })
	r.skMerge = rp.bench(2000, func(int) {
		dst := sketch.New(0)
		_ = dst.Merge(sk) // same alpha: Merge cannot fail
		sink = dst
	})
	r.skBins = sk.Bins()
	return r, nil
}
