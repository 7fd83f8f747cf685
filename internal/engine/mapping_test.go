package engine

import (
	"errors"
	"net/netip"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/procnet"
)

// gatedParse is a fake proc parse: each call signals started and then
// returns the next result the test sends, so the test decides when a
// parse finishes and what it lists.
type gatedParse struct {
	started chan struct{}
	results chan []procnet.Entry // nil sends a parse error
	calls   atomic.Int32
}

func (g *gatedParse) parse(dst []procnet.Entry) ([]procnet.Entry, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	if entries := <-g.results; entries != nil {
		return append(dst, entries...), nil
	}
	return dst, errors.New("unreadable table")
}

var (
	mapLocal  = netip.MustParseAddrPort("10.0.0.2:40001")
	mapRemote = netip.MustParseAddrPort("93.184.216.34:80")
	// listed is a table holding mapLocal's socket; vacated one without.
	listed  = []procnet.Entry{{Proto: procnet.TCP, Local: mapLocal, Remote: mapRemote, UID: 10001}}
	vacated = []procnet.Entry{}
)

func newGatedMapper() (*mapper, *gatedParse, *clock.Virtual) {
	g := &gatedParse{started: make(chan struct{}, 1), results: make(chan []procnet.Entry)}
	clk := clock.NewVirtual(time.Unix(1000, 0))
	pm := procnet.NewPackageManager()
	pm.Install(10001, "com.example.app")
	return &mapper{
		pm:       pm,
		mode:     MapLazy,
		clk:      clk,
		tcp:      &procTable{parse: g.parse, clk: clk},
		byRemote: make(map[netip.AddrPort]appInfo),
	}, g, clk
}

type sinceResult struct {
	p      *procParse
	parsed bool
}

// goSince calls since(t) on its own goroutine.
func goSince(pt *procTable, t int64) <-chan sinceResult {
	out := make(chan sinceResult, 1)
	go func() {
		p, parsed := pt.since(t)
		out <- sinceResult{p, parsed}
	}()
	return out
}

// waitJoined blocks until n goroutines wait inside since for a parse
// someone else is running.
func waitJoined(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.Contains(lines[1], "(*procTable).since(") {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines joined the parse in flight, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// Callers that arrive while a qualifying parse is in flight all read
// that parse: one parse, whatever the number of callers.
func TestProcTableJoinsQualifyingParse(t *testing.T) {
	m, g, clk := newGatedMapper()
	t0 := clk.Nanos()
	first := goSince(m.tcp, t0)
	<-g.started
	const n = 8
	joiners := make([]<-chan sinceResult, n)
	for i := range joiners {
		joiners[i] = goSince(m.tcp, t0)
	}
	waitJoined(t, n)
	g.results <- listed

	f := <-first
	if !f.parsed {
		t.Fatal("the first caller did not report its own parse")
	}
	for _, j := range joiners {
		r := <-j
		if r.p != f.p || r.parsed {
			t.Fatalf("joiner got parse %p (parsed=%v), want the shared %p", r.p, r.parsed, f.p)
		}
	}
	if c := g.calls.Load(); c != 1 {
		t.Fatalf("%d parses for %d concurrent callers, want 1", c, n+1)
	}
}

// A parse that began before the callers' sockets existed cannot list
// them: they wait it out, and exactly one fresh parse serves them all.
func TestProcTableStaleParseFollowedByOneFresh(t *testing.T) {
	m, g, clk := newGatedMapper()
	stale := goSince(m.tcp, clk.Nanos())
	<-g.started
	clk.Advance(time.Millisecond)
	t1 := clk.Nanos()
	const n = 8
	waiters := make([]<-chan sinceResult, n)
	for i := range waiters {
		waiters[i] = goSince(m.tcp, t1)
	}
	waitJoined(t, n)
	g.results <- vacated
	<-stale

	<-g.started // one waiter starts the fresh parse; the rest join it
	waitJoined(t, n-1)
	g.results <- listed
	parsers := 0
	var fresh *procParse
	for _, w := range waiters {
		r := <-w
		if r.p.began < t1 {
			t.Fatalf("waiter got a parse begun at %d, before its socket at %d", r.p.began, t1)
		}
		if fresh != nil && r.p != fresh {
			t.Fatal("waiters got different fresh parses")
		}
		fresh = r.p
		if r.parsed {
			parsers++
		}
	}
	if c := g.calls.Load(); c != 2 || parsers != 1 {
		t.Fatalf("%d parses, %d by waiters; want the stale one plus exactly one fresh", c, parsers)
	}
}

// The old miss: a waiter that woke up after a later parse had replaced
// the shared table looked its port up in that table, from which the
// closed socket had already vanished. A waiter now reads the parse it
// waited for, however many parses finish before it looks.
func TestProcTableWaiterKeepsItsSnapshot(t *testing.T) {
	m, g, clk := newGatedMapper()
	t0 := clk.Nanos()
	first := goSince(m.tcp, t0)
	<-g.started
	waiter := make(chan appInfo, 1)
	go func() {
		info, _ := m.resolve(mapLocal, mapRemote, t0)
		waiter <- info
	}()
	waitJoined(t, 1)

	// Hold the waiter between its wake-up and its lookup while a later
	// parse, in which the socket is gone, replaces the latest table.
	m.mu.Lock()
	g.results <- listed
	<-first
	clk.Advance(time.Millisecond)
	later := goSince(m.tcp, clk.Nanos())
	<-g.started
	g.results <- vacated
	<-later
	m.mu.Unlock()

	if info := <-waiter; info.Name != "com.example.app" {
		t.Fatalf("waiter resolved to %+v, want com.example.app", info)
	}
	// A lookup the later parse serves is rightly unknown: that table
	// shows the socket gone.
	if info, _ := m.resolve(mapLocal, mapRemote, clk.Nanos()); info != unknownApp {
		t.Fatalf("resolved %+v from a table without the socket", info)
	}
}

// A failed parse fails every caller waiting on it, and the failure is
// not reused: the next caller parses again.
func TestProcTableParseErrorReachesEveryWaiter(t *testing.T) {
	m, g, clk := newGatedMapper()
	t0 := clk.Nanos()
	const n = 5
	infos := make(chan appInfo, n+1)
	resolve := func() {
		info, _ := m.resolve(mapLocal, mapRemote, t0)
		infos <- info
	}
	go resolve()
	<-g.started
	for i := 0; i < n; i++ {
		go resolve()
	}
	waitJoined(t, n)
	g.results <- nil
	for i := 0; i < n+1; i++ {
		if info := <-infos; info != unknownApp {
			t.Fatalf("caller %d resolved %+v from a failed parse", i, info)
		}
	}
	st := m.stats()
	if st.Resolutions != n+1 || st.Misses != n+1 || st.Parses != 0 || st.Avoided != 0 {
		t.Fatalf("stats after a failed parse: %+v", st)
	}

	go resolve()
	select {
	case <-g.started:
	case info := <-infos:
		t.Fatalf("resolved %+v from the failed parse instead of parsing again", info)
	}
	g.results <- listed
	if info := <-infos; info.Name != "com.example.app" {
		t.Fatalf("retry after the failed parse resolved %+v", info)
	}
	if c := g.calls.Load(); c != 2 {
		t.Fatalf("%d parses, want the failed one plus a retry", c)
	}
}

// stepClock advances one nanosecond per reading, so every SYN time is
// later than every parse before it.
type stepClock struct{ n atomic.Int64 }

func (c *stepClock) Nanos() int64 { return c.n.Add(1) }

// A lazy resolution that runs its own parse allocates only what outlives
// it — the procParse, its done channel and its index. The rendered
// text, the table's rows and the parsed entries live in buffers their
// owners keep.
func TestLazyResolveAllocs(t *testing.T) {
	table := procnet.NewTable()
	pm := procnet.NewPackageManager()
	for i := 0; i < 15; i++ {
		uid := 10000 + i
		pm.Install(uid, "com.example.app")
		table.Add(procnet.Entry{Proto: procnet.TCP, Local: netip.AddrPortFrom(mapLocal.Addr(), uint16(40000+i)), Remote: mapRemote, State: procnet.StateEstablished, UID: uid})
		table.Add(procnet.Entry{Proto: procnet.TCP6, Local: netip.MustParseAddrPort("[fd00::2]:1"), Remote: netip.MustParseAddrPort("[2606:2800:220:1::1]:443"), State: procnet.StateEstablished, UID: uid})
	}
	clk := &stepClock{}
	m := newMapper(procnet.NewReader(table, clock.NewReal(), procnet.ZeroParseCost(), 1), pm, MapLazy, clk)
	local := netip.AddrPortFrom(mapLocal.Addr(), 40007)
	resolve := func() {
		if info, _ := m.resolve(local, mapRemote, clk.Nanos()); info.UID != 10007 {
			t.Fatalf("resolved %+v, want uid 10007", info)
		}
	}
	for i := 0; i < 10; i++ {
		resolve()
	}
	n := testing.AllocsPerRun(100, resolve)
	t.Logf("%.2f allocations per lazy resolution", n)
	if n > 4 {
		t.Errorf("a lazy resolution on 30 rows allocates %.1f objects, want at most 4", n)
	}
	if st := m.stats(); st.Parses != st.Resolutions {
		t.Errorf("%d parses for %d resolutions: each resolution must run its own", st.Parses, st.Resolutions)
	}
}
