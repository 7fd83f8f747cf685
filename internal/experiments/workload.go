package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"repro/internal/phonestack"
	"repro/internal/testbed"
)

// This file is the trace-driven workload layer: canned, seeded traffic
// generators shaped like the app behaviours MopEye's deployment saw —
// web-browse bursts, chat keepalives, video buffering, background
// sync. Each generator returns a function that drives one testbed.Bed,
// paces itself on the bed's own clock (so it runs correctly under
// simulated time), and tolerates connect/resolve failures: under an
// adverse network profile the point is to keep generating traffic
// while the engine counts what the network did to it, not to abort
// the phone.

// workloadOptions parameterises the canned workload generators.
type workloadOptions struct {
	// Sites are the destinations the workload visits — "domain:port"
	// (resolved through the phone's DNS, producing DNS measurements) or
	// literal "ip:port" (no DNS dependency; keeps TCP traffic flowing
	// even under a DNS-blackhole regime). At least one is required.
	Sites []string
	// UID is the app identity the traffic is attributed to (default
	// 10001; install the matching package first).
	UID int
	// Duration bounds the workload, measured on the bed's clock
	// (default 2s).
	Duration time.Duration
	// Seed drives the generator's randomness — site choice, sizes,
	// pacing (default 1). Same seed, same trace.
	Seed int64
}

func (o workloadOptions) withDefaults() workloadOptions {
	if o.UID == 0 {
		o.UID = 10001
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// workloadResolveTimeout bounds one workload-side DNS lookup. Shorter
// than the stack's default so a dead resolver costs the trace a
// bounded stall per visit (the failure is still fully counted by the
// engine), not ten seconds.
const workloadResolveTimeout = 600 * time.Millisecond

// workloadConnectTimeout bounds one workload-side TCP connect.
const workloadConnectTimeout = 5 * time.Second

// webBrowseWorkload models page loads: bursts of 2–4 short
// connections (a page and its subresources), each a small
// request/response exchange, separated by think time.
func webBrowseWorkload(o workloadOptions) func(context.Context, *testbed.Bed) error {
	o = o.withDefaults()
	return func(ctx context.Context, bed *testbed.Bed) error {
		w := newWalker(o, bed)
		for w.more(ctx) {
			burst := 2 + w.rng.Intn(3)
			for i := 0; i < burst && w.more(ctx); i++ {
				w.exchange(w.site(), 200+w.rng.Intn(600), 1)
			}
			w.pause(ctx, 100*time.Millisecond, 300*time.Millisecond)
		}
		return ctx.Err()
	}
}

// chatKeepaliveWorkload models a messaging app: a long-lived
// connection carrying small periodic keepalives, reconnecting every
// few beats (and on error) so the opportunistic measurement keeps
// sampling the path.
func chatKeepaliveWorkload(o workloadOptions) func(context.Context, *testbed.Bed) error {
	o = o.withDefaults()
	return func(ctx context.Context, bed *testbed.Bed) error {
		w := newWalker(o, bed)
		for w.more(ctx) {
			c := w.connect(w.site())
			beats := 2 + w.rng.Intn(3)
			for i := 0; c != nil && i < beats && w.more(ctx); i++ {
				if !w.roundTrip(c, 20+w.rng.Intn(40)) {
					c = nil
					break
				}
				w.pause(ctx, 80*time.Millisecond, 200*time.Millisecond)
			}
			if c != nil {
				c.Close()
			} else {
				w.pause(ctx, 50*time.Millisecond, 150*time.Millisecond)
			}
		}
		return ctx.Err()
	}
}

// videoBufferWorkload models streaming playback: fetch a few large
// chunks back to back (buffering), then idle while the buffer drains,
// on a fresh connection per buffering cycle.
func videoBufferWorkload(o workloadOptions) func(context.Context, *testbed.Bed) error {
	o = o.withDefaults()
	return func(ctx context.Context, bed *testbed.Bed) error {
		w := newWalker(o, bed)
		for w.more(ctx) {
			chunks := 2 + w.rng.Intn(2)
			w.exchange(w.site(), 8<<10, chunks)
			w.pause(ctx, 150*time.Millisecond, 300*time.Millisecond)
		}
		return ctx.Err()
	}
}

// backgroundSyncWorkload models periodic app sync: long idle, then a
// DNS lookup and one bulk upload-ish exchange.
func backgroundSyncWorkload(o workloadOptions) func(context.Context, *testbed.Bed) error {
	o = o.withDefaults()
	return func(ctx context.Context, bed *testbed.Bed) error {
		w := newWalker(o, bed)
		for w.more(ctx) {
			w.exchange(w.site(), 4<<10, 1)
			w.pause(ctx, 250*time.Millisecond, 500*time.Millisecond)
		}
		return ctx.Err()
	}
}

// workloadRegistry maps CLI names to generators, the spelling
// `paperbench -exp scenarios -workloads web,video` uses.
var workloadRegistry = map[string]func(workloadOptions) func(context.Context, *testbed.Bed) error{
	"web":   webBrowseWorkload,
	"chat":  chatKeepaliveWorkload,
	"video": videoBufferWorkload,
	"sync":  backgroundSyncWorkload,
}

// workloadNames lists the canned workload generators, sorted.
func workloadNames() []string {
	names := make([]string, 0, len(workloadRegistry))
	for n := range workloadRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// workloadByName returns the named canned generator applied to o.
func workloadByName(name string, o workloadOptions) (func(context.Context, *testbed.Bed) error, error) {
	gen, ok := workloadRegistry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q (have %v)", name, workloadNames())
	}
	return gen(o), nil
}

// walker is the shared machinery under every generator: a seeded RNG,
// a deadline on the bed's clock, a round-robin site picker, and
// exchange helpers that swallow network failures (the engine counts
// what each failure did to the traffic).
type walker struct {
	o    workloadOptions
	bed  *testbed.Bed
	rng  *rand.Rand
	end  int64 // bed-clock nanos
	next int
}

func newWalker(o workloadOptions, bed *testbed.Bed) *walker {
	w := &walker{
		o:   o,
		bed: bed,
		rng: rand.New(rand.NewSource(o.Seed)),
		end: bed.Clk.Nanos() + int64(o.Duration),
	}
	w.next = w.rng.Intn(len(o.Sites))
	return w
}

func (w *walker) more(ctx context.Context) bool {
	return ctx.Err() == nil && w.bed.Clk.Nanos() < w.end
}

// site cycles through the configured sites from a seeded starting
// phase. Round robin rather than uniform draws so every site — in
// particular a literal-address one that keeps TCP flowing under a dead
// resolver — is visited even in a short run.
func (w *walker) site() string {
	s := w.o.Sites[w.next%len(w.o.Sites)]
	w.next++
	return s
}

// pause sleeps a uniform duration in [lo, hi] on the bed's clock, cut
// short by context cancellation.
func (w *walker) pause(ctx context.Context, lo, hi time.Duration) {
	d := lo
	if hi > lo {
		d += time.Duration(w.rng.Int63n(int64(hi - lo)))
	}
	select {
	case <-w.bed.Clk.After(d):
	case <-ctx.Done():
	}
}

// dst resolves a site to an address: literal "ip:port" directly,
// "domain:port" through the phone's DNS with a bounded timeout. Every
// visit resolves afresh — no app-side cache — so DNS-regime scenarios
// keep sampling the resolver path. ok=false means the visit is
// abandoned; the failure's datagrams are counted by the engine.
func (w *walker) dst(site string) (netip.AddrPort, bool) {
	if ap, err := netip.ParseAddrPort(site); err == nil {
		return ap, true
	}
	host, portStr, err := net.SplitHostPort(site)
	if err != nil {
		return netip.AddrPort{}, false
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return netip.AddrPort{}, false
	}
	res, err := w.bed.Phone.Resolve(w.o.UID, testbed.DNSAddr, host, workloadResolveTimeout)
	if err != nil {
		return netip.AddrPort{}, false
	}
	return netip.AddrPortFrom(res.Addr, uint16(port)), true
}

// connect opens a TCP connection to the site, nil on failure.
func (w *walker) connect(site string) *phonestack.Conn {
	ap, ok := w.dst(site)
	if !ok {
		return nil
	}
	c, err := w.bed.Phone.Connect(w.o.UID, ap, workloadConnectTimeout)
	if err != nil {
		return nil
	}
	return c
}

// roundTrip writes size random bytes and reads the echo back,
// reporting success. On failure the connection is closed.
func (w *walker) roundTrip(c *phonestack.Conn, size int) bool {
	buf := make([]byte, size)
	w.rng.Read(buf)
	if _, err := c.Write(buf); err != nil {
		c.Close()
		return false
	}
	if err := c.ReadFull(make([]byte, size)); err != nil {
		c.Close()
		return false
	}
	return true
}

// exchange is one visit: connect, rounds echo round trips of size
// bytes each, close.
func (w *walker) exchange(site string, size, rounds int) {
	c := w.connect(site)
	if c == nil {
		return
	}
	defer c.Close()
	for i := 0; i < rounds; i++ {
		if !w.roundTrip(c, size) {
			return
		}
	}
}
