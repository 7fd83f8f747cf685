package main

import (
	"fmt"
)

// layerMetrics is the fixed per-layer set, in ledger order. Every
// workload emits every name; a layer the workload's path never visits
// reports 0 (README.md "Reading a zero").
var layerMetrics = []struct{ name, unit string }{
	{"packet.peek_ns", "ns"}, {"packet.decode_ns", "ns"}, {"packet.encode_ns", "ns"}, {"packet.verify_ns", "ns"},
	{"packet.decode_allocs", "count"}, {"packet.encode_allocs", "count"},

	{"tun.read_ns_per_pkt", "ns"}, {"tun.write_ns_per_pkt", "ns"}, {"tun.pkts_per_read", "count"},
	{"tun.read_wait_share", "ratio"}, {"tun.write_busy_share", "ratio"}, {"tun.read_delay_us_mean", "us"}, {"tun.drops", "count"},

	{"engine.pkts_per_op", "count"}, {"engine.pkts_per_s", "1/s"}, {"engine.pure_acks_per_op", "count"},
	{"engine.avg_read_batch", "count"}, {"engine.decode_errors", "count"}, {"engine.udp_dropped", "count"},
	{"engine.dns_timeouts", "count"}, {"engine.mapping_waits", "count"}, {"engine.mapping_misses", "count"},

	{"flowtable.get_ns", "ns"}, {"flowtable.put_delete_ns", "ns"},

	{"tcpsm.handshake_ns", "ns"}, {"tcpsm.data_ns_per_seg", "ns"}, {"tcpsm.send_ns_per_seg", "ns"}, {"tcpsm.allocs_per_seg", "count"},

	{"sockets.register_ns", "ns"}, {"sockets.connect_ns", "ns"}, {"sockets.select_ns_per_key", "ns"}, {"sockets.selects_per_op", "count"},

	{"upstream.dial_us_p50", "us"}, {"upstream.write_ns_per_call", "ns"}, {"upstream.read_ns_per_call", "ns"}, {"upstream.bytes_per_write", "B"},

	{"procnet.lookup_us", "us"},

	{"measure.store_add_ns", "ns"}, {"measure.store_add_sub_ns", "ns"}, {"measure.encode_batch_us", "us"},
	{"measure.decode_batch_us", "us"}, {"measure.bytes_per_record", "B"},

	{"transport.upload_us_p50", "us"}, {"transport.upload_us_p99", "us"}, {"transport.retries", "count"}, {"transport.dropped", "count"},
	{"http.overhead_us", "us"},

	{"crowd.handler_us_p50", "us"}, {"crowd.commit_us", "us"}, {"crowd.spool_append_us", "us"}, {"crowd.spool_bytes_per_record", "B"},
	{"crowd.dedup_hits", "count"}, {"crowd.dedup_keys", "count"}, {"crowd.summary_us", "us"}, {"crowd.stats_us_p50", "us"},

	{"sketch.add_ns", "ns"}, {"sketch.quantile_ns", "ns"}, {"sketch.merge_ns", "ns"}, {"sketch.bins", "count"},

	{"go.allocs_per_op", "count"}, {"go.gc_cpu_share", "ratio"}, {"go.gc_cycles", "count"}, {"go.heap_growth_MB", "MB"},

	// App-observed detail measured in the untraced pass: what
	// latency_us_* means on the workload, under its own name.
	{"phone.connect_us_p50", "us"}, {"phone.connect_us_p90", "us"}, {"phone.dns_us_p50", "us"},
	{"phone.rtt_err_us_p50", "us"}, {"phone.connect_overhead_us_p50", "us"},

	// Tails that did not repeat run to run: kept for diagnosis, never gated.
	{"engine.connect_us_p99", "us"}, {"engine.round_ms_p99", "ms"}, {"engine.rtt_err_us_p90", "us"},

	// Reconciliation rows: measured CPU per packet (per batch) minus
	// Σ(layer cost × visit count). Expected to be large until a later
	// change adds spans inside the program.
	{"engine.unattributed_ns_per_pkt", "ns"}, {"crowd.unattributed_us_per_batch", "us"},

	{"trace.overhead_share", "ratio"},
}

// layerRows collects per-layer values against the fixed set.
type layerRows struct {
	rows  []row
	index map[string]int
}

func newLayerRows() *layerRows {
	l := &layerRows{index: make(map[string]int, len(layerMetrics))}
	for i, m := range layerMetrics {
		l.rows = append(l.rows, row{Metric: m.name, Unit: m.unit})
		l.index[m.name] = i
	}
	return l
}

func (l *layerRows) set(name string, value float64, samples int) {
	i, ok := l.index[name]
	if !ok {
		panic("bench: layer metric not declared in layerMetrics: " + name)
	}
	l.rows[i].Value, l.rows[i].Samples = value, samples
}

func (l *layerRows) cost(name string, c cost, scale float64) {
	l.set(name, c.ns*scale, c.n)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the per-layer rows from the two sources: counters
// and seam spans of the traced pass, and layer replay. base is the
// untraced pass of the same size; process-level numbers (go.*, the
// measured side of the reconciliation) come from it.
func perLayer(w workload, p *pass, base, traced *passResult) ([]row, error) {
	l := newLayerRows()
	ops := float64(base.tally.attempted)
	lat, detail := base.tally.lat, base.tally.detail

	l.set("go.allocs_per_op", div(float64(base.sec.mallocs), ops), base.tally.attempted)
	l.set("go.gc_cpu_share", div(base.sec.gcCPU, base.sec.cpu.Seconds()), 1)
	l.set("go.gc_cycles", float64(base.sec.gcCycles), 1)
	l.set("go.heap_growth_MB", float64(base.sec.heapDelta)/1e6, 1)
	l.set("trace.overhead_share", div(traced.sec.wall.Seconds(), base.sec.wall.Seconds())-1, 1)

	var err error
	if w.collector {
		err = collectorLayers(l, p, base, traced)
	} else {
		err = engineLayers(l, w, p, base, traced)
		l.set("phone.connect_us_p50", quantile(detail["connect"], 0.5), len(detail["connect"]))
		l.set("phone.connect_us_p90", quantile(detail["connect"], 0.9), len(detail["connect"]))
		l.set("engine.connect_us_p99", quantile(detail["connect"], 0.99), len(detail["connect"]))
		l.set("phone.dns_us_p50", quantile(detail["dns"], 0.5), len(detail["dns"]))
		l.set("phone.rtt_err_us_p50", quantile(detail["rtt_err"], 0.5), len(detail["rtt_err"]))
		l.set("engine.rtt_err_us_p90", quantile(detail["rtt_err"], 0.9), len(detail["rtt_err"]))
		if len(detail["rtt_err"]) > 0 {
			l.set("phone.connect_overhead_us_p50", quantile(lat, 0.5), len(lat))
		}
		if len(detail["connect"]) == 0 { // a standing-flow workload: latency is the round
			l.set("engine.round_ms_p99", quantile(lat, 0.99)/1e3, len(lat))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return l.rows, nil
}

func engineLayers(l *layerRows, w workload, p *pass, base, traced *passResult) error {
	ops := float64(base.tally.attempted)
	b0, b1 := base.before.eng, base.after.eng
	from := float64(b1.PacketsFromTun - b0.PacketsFromTun)
	to := float64(b1.PacketsToTun - b0.PacketsToTun)
	pkts := from + to
	l.set("engine.pkts_per_op", div(pkts, ops), int(pkts))
	l.set("engine.pkts_per_s", div(pkts, base.sec.wall.Seconds()), int(pkts))
	l.set("engine.pure_acks_per_op", div(float64(b1.PureACKs-b0.PureACKs), ops), b1.PureACKs-b0.PureACKs)
	l.set("engine.avg_read_batch", div(float64(b1.BatchedPackets-b0.BatchedPackets), float64(b1.ReadBatches-b0.ReadBatches)), b1.ReadBatches-b0.ReadBatches)
	l.set("engine.decode_errors", float64(b1.DecodeErrors-b0.DecodeErrors), 1)
	l.set("engine.udp_dropped", float64(b1.UDPDropped-b0.UDPDropped), 1)
	l.set("engine.dns_timeouts", float64(b1.DNSTimeouts-b0.DNSTimeouts), 1)
	l.set("engine.mapping_waits", float64(b1.Mapping.Avoided-b0.Mapping.Avoided), b1.Mapping.Resolutions-b0.Mapping.Resolutions)
	l.set("engine.mapping_misses", float64(b1.Mapping.Misses-b0.Mapping.Misses), b1.Mapping.Resolutions-b0.Mapping.Resolutions)

	// Seam spans and the counters taken at the same boundaries.
	tr := p.tr
	wall := float64(traced.sec.wall.Nanoseconds())
	reads, readPkts := tr.tunRead.count.Load(), tr.tunRead.units.Load()
	l.set("tun.pkts_per_read", div(float64(readPkts), float64(reads)), int(reads))
	l.set("tun.read_wait_share", div(float64(tr.tunRead.ns.Load()), wall), int(reads))
	l.set("tun.write_busy_share", div(float64(tr.tunWrite.ns.Load()), wall), int(tr.tunWrite.count.Load()))
	t0, t1 := traced.before.tun, traced.after.tun
	l.set("tun.read_delay_us_mean", div(micros(t1.ReadDelaySum-t0.ReadDelaySum), float64(t1.PacketsOut-t0.PacketsOut)), t1.PacketsOut-t0.PacketsOut)
	l.set("tun.drops", float64(t1.Drops-t0.Drops), 1)

	tops := float64(traced.tally.attempted)
	selects := traced.after.selects - traced.before.selects
	l.set("sockets.selects_per_op", div(selects, tops), int(selects))
	l.set("upstream.dial_us_p50", quantile(tr.dial.durs, 0.5), len(tr.dial.durs))
	writes, upReads := tr.upWrite.count.Load(), tr.upRead.count.Load()
	l.set("upstream.write_ns_per_call", tr.upWrite.nsPer(writes), int(writes))
	l.set("upstream.read_ns_per_call", tr.upRead.nsPer(upReads), int(upReads))
	l.set("upstream.bytes_per_write", div(float64(tr.upWrite.units.Load()), float64(writes)), int(writes))

	// Layer replay over the captured packets.
	r, err := p.replayer().replayEngine(p.tr.cap, w.live, w.batched)
	if err != nil {
		return err
	}
	l.cost("packet.peek_ns", r.peek, 1)
	l.cost("packet.decode_ns", r.decode, 1)
	l.cost("packet.encode_ns", r.encode, 1)
	l.cost("packet.verify_ns", r.verify, 1)
	l.set("packet.decode_allocs", r.decode.allocs, r.decode.n)
	l.set("packet.encode_allocs", r.encode.allocs, r.encode.n)
	l.cost("tun.read_ns_per_pkt", r.tunRead, 1)
	l.cost("tun.write_ns_per_pkt", r.tunWrite, 1)
	l.cost("flowtable.get_ns", r.ftGet, 1)
	l.cost("flowtable.put_delete_ns", r.ftPutDelete, 1)
	l.cost("tcpsm.handshake_ns", r.handshake, 1)
	l.cost("tcpsm.data_ns_per_seg", r.smData, 1)
	l.cost("tcpsm.send_ns_per_seg", r.smSend, 1)
	l.set("tcpsm.allocs_per_seg", r.smSend.allocs, r.smSend.n)
	l.cost("sockets.register_ns", r.register, 1)
	l.cost("sockets.connect_ns", r.connect, 1)
	l.cost("sockets.select_ns_per_key", r.selectKey, 1)
	l.cost("procnet.lookup_us", r.procLookup, 1e-3)
	l.cost("measure.store_add_ns", r.storeAdd, 1)
	l.cost("measure.store_add_sub_ns", r.storeAddSub, 1)

	// Reconciliation. Visits are the traced pass's own counts (the two
	// passes do identical work); the measured side is the untraced
	// pass's process CPU, which also pays for the drivers, the phone
	// stack and the netsim servers sharing the process.
	e0, e1 := traced.before.eng, traced.after.eng
	tFrom := float64(e1.PacketsFromTun - e0.PacketsFromTun)
	tTo := float64(e1.PacketsToTun - e0.PacketsToTun)
	syns := float64(e1.SYNs - e0.SYNs)
	parses := float64(e1.Mapping.Parses - e0.Mapping.Parses)
	perFrom := r.tunRead.ns + r.decode.ns + r.ftGet.ns
	if w.batched {
		perFrom += r.peek.ns
	}
	attributed := tFrom*perFrom +
		tFrom*r.dataShareUp*r.smData.ns +
		tTo*(r.encode.ns+r.tunWrite.ns) +
		tTo*r.dataShareDown*r.smSend.ns +
		float64(tr.upWrite.ns.Load()) + float64(tr.upRead.ns.Load()) +
		float64(tr.upRead.hits.Load())*r.selectKey.ns +
		syns*(r.handshake.ns+r.connect.ns+r.register.ns+r.ftPutDelete.ns+r.storeAdd.ns) +
		parses*r.procLookup.ns
	measured := div(float64(base.sec.cpu.Nanoseconds()), pkts)
	l.set("engine.unattributed_ns_per_pkt", measured-div(attributed, tFrom+tTo), int(pkts))
	return nil
}

func collectorLayers(l *layerRows, p *pass, base, traced *passResult) error {
	tr := p.tr
	lat, detail := base.tally.lat, base.tally.detail
	l.set("transport.upload_us_p99", quantile(lat, 0.99), len(lat))
	l.set("crowd.stats_us_p50", quantile(detail["stats"], 0.5), len(detail["stats"]))

	client, server := tr.clientUpload, tr.handlerSpan
	l.set("transport.upload_us_p50", quantile(client.durs, 0.5), len(client.durs))
	l.set("crowd.handler_us_p50", quantile(server.durs, 0.5), len(server.durs))
	// The client span's self time: what the HTTP stack and the loopback
	// socket add around the handler.
	l.set("http.overhead_us", mean(client.durs)-mean(server.durs), len(client.durs))
	c0, c1 := traced.before.ingest, traced.after.ingest
	var retries, dropped, uploaded uint64
	for d := range c1.transport {
		retries += c1.transport[d].Retried - c0.transport[d].Retried
		dropped += c1.transport[d].Dropped - c0.transport[d].Dropped
		uploaded += c1.transport[d].Uploaded - c0.transport[d].Uploaded
	}
	l.set("transport.retries", float64(retries), int(uploaded))
	l.set("transport.dropped", float64(dropped), int(uploaded))
	l.set("crowd.dedup_hits", float64(c1.srv.Duplicates-c0.srv.Duplicates), int(uploaded))
	l.set("crowd.dedup_keys", float64(c1.dedupKeys), 1)

	recordsPerBatch := div(float64(c1.srv.Records-c0.srv.Records), float64(c1.srv.Batches-c0.srv.Batches))
	r, err := p.replayer().replayCollector(p.seed, int(recordsPerBatch), p.outDir)
	if err != nil {
		return err
	}
	l.cost("measure.encode_batch_us", r.encodeBatch, 1e-3)
	l.cost("measure.decode_batch_us", r.decodeBatch, 1e-3)
	l.set("measure.bytes_per_record", r.bytesPerRecord, r.encodeBatch.n)
	l.cost("crowd.commit_us", r.commit, 1e-3)
	l.cost("crowd.spool_append_us", r.spoolAppend, 1e-3)
	l.set("crowd.spool_bytes_per_record", r.spoolBytesPerRecord, r.spoolAppend.n)
	l.cost("crowd.summary_us", r.summary, 1e-3)
	l.cost("sketch.add_ns", r.skAdd, 1)
	l.cost("sketch.quantile_ns", r.skQuantile, 1)
	l.cost("sketch.merge_ns", r.skMerge, 1)
	l.set("sketch.bins", float64(r.skBins), r.skAdd.n)

	// Reconciliation: process CPU per upload against the two replayed
	// layers a batch passes through (client-side encode, the whole
	// server-side handler). The rest is net/http on both ends, the
	// loopback socket, and batch synthesis in the drivers.
	b0, b1 := base.before.ingest, base.after.ingest
	var uploads uint64
	for d := range b1.transport {
		uploads += b1.transport[d].Uploaded - b0.transport[d].Uploaded
	}
	measured := div(micros(base.sec.cpu), float64(uploads))
	l.set("crowd.unattributed_us_per_batch", measured-(r.encodeBatch.ns+r.commit.ns)/1e3, int(uploads))
	return nil
}
