package engine

import (
	"cmp"
	"net/netip"
	"slices"
	"sync"
	"time"

	"repro/internal/procnet"
)

// This file implements the packet-to-app mapping strategies of §2.2 and
// §3.3.
//
// The kernel offers no API for socket-to-app mapping; the proc files
// /proc/net/tcp|tcp6 list each connection with the owning app's UID.
// Parsing them is expensive (Figure 5(a)), so MopEye (a) defers the
// mapping off the main thread into the socket-connect thread, after the
// external connect has finished, and (b) elects a single parser among
// concurrent socket-connect threads; the rest wait for the elected
// thread's parse and read its result. Unlike a remote-endpoint cache
// (Haystack), the result is always derived from the kernel's own table,
// so two apps sharing a server endpoint can never be confused.

// appInfo is a resolved attribution.
type appInfo struct {
	UID  int
	Name string
}

var unknownApp = appInfo{UID: -1, Name: "unknown"}

// portOwner is one row of a parse's index: a local port and the UID
// that owns it.
type portOwner struct {
	port uint16
	uid  int
}

// procParse is one parse of a family of proc tables, indexed by local
// port (ok is false if the parse failed). It never changes once done
// is closed, so a caller reads exactly the table it waited for.
type procParse struct {
	began  int64 // clock time at which the parse started
	done   chan struct{}
	ok     bool
	owners []portOwner // sorted by port, one per port
}

// owner returns the UID that owns port in p.
func (p *procParse) owner(port uint16) (uid int, ok bool) {
	i, found := slices.BinarySearchFunc(p.owners, port, func(o portOwner, port uint16) int {
		return cmp.Compare(o.port, port)
	})
	if !found {
		return 0, false
	}
	return p.owners[i].uid, true
}

// procTable parses one family of proc tables (tcp+tcp6 or udp+udp6) and
// makes the §3.3 election: at most one lazy parse is in flight, and
// every other lazy caller waits for a parse instead of running its own.
type procTable struct {
	parse func(dst []procnet.Entry) ([]procnet.Entry, error)
	clk   interface{ Nanos() int64 }

	mu   sync.Mutex
	cur  *procParse // the parse in flight, or nil
	last *procParse // the latest successful parse, or nil

	// rows is the elected parse's scratch, kept at its peak size. Only
	// the parse in flight (cur) touches it, so it needs no lock.
	rows []procnet.Entry
}

// index runs one parse into rows' storage and indexes it by local port
// into p, setting p.ok if the parse succeeded. It returns the rows for
// reuse.
func (pt *procTable) index(p *procParse, rows []procnet.Entry) []procnet.Entry {
	rows, err := pt.parse(rows[:0])
	if err != nil {
		return rows
	}
	owners := make([]portOwner, len(rows))
	for i, e := range rows {
		owners[i] = portOwner{port: e.Local.Port(), uid: e.UID}
	}
	slices.SortStableFunc(owners, func(a, b portOwner) int { return cmp.Compare(a.port, b.port) })
	// A port listed twice belongs to its last row, as in a map filled in
	// row order.
	n := 0
	for i, o := range owners {
		if i+1 < len(owners) && owners[i+1].port == o.port {
			continue
		}
		owners[n] = o
		n++
	}
	p.owners, p.ok = owners[:n], true
	return rows
}

// now parses for the caller alone, outside the election: MapEager's
// per-SYN parse and a MapCache miss. Such parses run concurrently with
// each other and with the elected one, so each gets its own rows.
func (pt *procTable) now() *procParse {
	p := &procParse{}
	pt.index(p, nil)
	return p
}

// since returns a finished parse that began at or after t (so it lists
// every socket registered before t) and whether the caller ran it. It
// takes the latest parse if that qualifies, else joins the one in
// flight; if that began too early, it waits and starts or joins the next.
func (pt *procTable) since(t int64) (*procParse, bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for {
		if p := pt.last; p != nil && p.began >= t {
			return p, false
		}
		if p := pt.cur; p != nil {
			pt.mu.Unlock()
			<-p.done
			pt.mu.Lock()
			if p.began >= t {
				return p, false
			}
			continue
		}
		p := &procParse{began: pt.clk.Nanos(), done: make(chan struct{})}
		pt.cur = p
		pt.mu.Unlock()
		pt.rows = pt.index(p, pt.rows)
		pt.mu.Lock()
		pt.cur = nil
		if p.ok {
			pt.last = p
		}
		close(p.done)
		return p, true
	}
}

// mapper resolves a local port to the owning app.
type mapper struct {
	pm   *procnet.PackageManager
	mode MappingMode
	clk  interface{ Nanos() int64 }
	tcp  *procTable
	udp  *procTable

	mu sync.Mutex
	// byRemote is the MapCache-mode cache keyed by remote endpoint.
	byRemote map[netip.AddrPort]appInfo

	parses   int             // parses performed
	avoided  int             // resolutions that needed no parse of their own
	misses   int             // resolutions that found no app
	overhead []time.Duration // per-resolution mapping work (Figure 5)
}

func newMapper(reader *procnet.Reader, pm *procnet.PackageManager, mode MappingMode, clk interface{ Nanos() int64 }) *mapper {
	return &mapper{
		pm:       pm,
		mode:     mode,
		clk:      clk,
		tcp:      &procTable{parse: reader.AppendAll, clk: clk},
		udp:      &procTable{parse: reader.AppendAllUDP, clk: clk},
		byRemote: make(map[netip.AddrPort]appInfo),
	}
}

// resolve maps the connection with the given local endpoint (and remote,
// for cache mode) to an app. synAt is the engine time the SYN was seen;
// only parses started at or after it are trusted to contain the entry.
// The returned duration is the mapping work charged to the caller, the
// quantity plotted in Figure 5.
func (m *mapper) resolve(local netip.AddrPort, remote netip.AddrPort, synAt int64) (appInfo, time.Duration) {
	start := m.clk.Nanos()
	info, cached := unknownApp, false
	var p *procParse // the parse that answers; nil for MapOff and cache hits
	parsed := true
	switch m.mode {
	case MapLazy:
		p, parsed = m.tcp.since(synAt)
	case MapEager:
		p = m.tcp.now()
	case MapCache:
		// The Haystack-style remote-endpoint cache. Its accuracy hazard is
		// inherent: the first app to reach a remote endpoint claims every
		// later flow to it (§3.3's Facebook-app vs Facebook-in-Chrome
		// example), and shared libraries and ad modules make that common.
		m.mu.Lock()
		info, cached = m.byRemote[remote]
		m.mu.Unlock()
		if !cached {
			p = m.tcp.now()
		}
	}
	if p != nil {
		info = m.find(local, p)
	}
	d := time.Duration(m.clk.Nanos() - start)
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case cached:
		m.avoided++
	case p == nil || !p.ok: // MapOff, or a failed parse
	case parsed:
		m.parses++
	default:
		m.avoided++
	}
	if m.mode == MapCache {
		m.byRemote[remote] = info
	}
	m.overhead = append(m.overhead, d)
	if info == unknownApp {
		m.misses++
	}
	return info, d
}

// resolveUDP maps a datagram socket's local port to its owning app via
// the udp/udp6 proc tables. It runs once per UDP relay session, always
// on a pooled relay worker — never the packet path — with the same
// freshness and election rules as the TCP path: only a parse begun at
// or after the session's first datagram is trusted to contain the
// socket. It deliberately leaves the §3.3 lazy-mapping stats untouched;
// those feed Figure 5, which measures the TCP SYN path.
func (m *mapper) resolveUDP(local netip.AddrPort, at int64) appInfo {
	if m.mode == MapOff {
		return unknownApp
	}
	p, _ := m.udp.since(at)
	return m.find(local, p)
}

// find looks local's port up in p and names the owning UID.
func (m *mapper) find(local netip.AddrPort, p *procParse) appInfo {
	uid, ok := p.owner(local.Port())
	if !ok {
		return unknownApp
	}
	name, ok := m.pm.NameForUID(uid)
	if !ok {
		return appInfo{UID: uid, Name: "uid:unknown"}
	}
	return appInfo{UID: uid, Name: name}
}

// MappingStats summarises mapper behaviour for §3.3's evaluation: total
// resolutions, how many performed a parse, how many were avoided, and
// the per-resolution overhead samples for the Figure 5 CDFs.
type MappingStats struct {
	Resolutions int
	Parses      int
	Avoided     int
	Misses      int
	Overheads   []time.Duration
}

// MitigationRate is the fraction of resolutions that avoided parsing
// (67.8% in the paper's web-browsing run).
func (s MappingStats) MitigationRate() float64 {
	if s.Resolutions == 0 {
		return 0
	}
	return float64(s.Avoided) / float64(s.Resolutions)
}

func (m *mapper) stats() MappingStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MappingStats{
		Resolutions: len(m.overhead),
		Parses:      m.parses,
		Avoided:     m.avoided,
		Misses:      m.misses,
		Overheads:   append([]time.Duration(nil), m.overhead...),
	}
}
