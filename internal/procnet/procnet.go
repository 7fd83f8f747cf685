// Package procnet emulates the four proc filesystem files
// (/proc/net/tcp6|tcp|udp|udp6) that MopEye parses to map a captured
// packet to the app that sent it (§2.2), together with the
// PackageManager UID→name lookup.
//
// The table is maintained by the phone stack (the kernel's role) and
// rendered in the authentic /proc/net/tcp text format, which the
// engine-side parser consumes. Parsing these files on Android is
// expensive — Figure 5(a) shows >75% of parses above 5 ms, >10% above
// 15 ms — so a calibrated cost model charges simulated time per parse,
// growing with the number of active connections exactly as §3.3
// observes.
package procnet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/clock"
)

// Proto selects one of the four proc files.
type Proto int

// The four proc files.
const (
	TCP Proto = iota
	TCP6
	UDP
	UDP6
)

func (p Proto) String() string {
	switch p {
	case TCP:
		return "tcp"
	case TCP6:
		return "tcp6"
	case UDP:
		return "udp"
	case UDP6:
		return "udp6"
	default:
		return "proto?"
	}
}

// Socket states as encoded in /proc/net/tcp.
const (
	StateEstablished = 0x01
	StateSynSent     = 0x02
	StateFinWait1    = 0x04
	StateClose       = 0x07
	StateListen      = 0x0A
)

// Entry is one row of a proc net table.
type Entry struct {
	Proto  Proto
	Local  netip.AddrPort
	Remote netip.AddrPort
	State  int
	UID    int
	Inode  uint64
}

// Table is the kernel-side connection table feeding the proc files.
type Table struct {
	mu        sync.Mutex
	entries   map[uint64]Entry // keyed by inode
	nextInode uint64

	renderMu sync.Mutex
	rows     []Entry // AppendRender's scratch, kept at its peak size
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[uint64]Entry)}
}

// Add inserts a connection and returns its inode handle.
func (t *Table) Add(e Entry) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextInode++
	e.Inode = t.nextInode
	t.entries[e.Inode] = e
	return e.Inode
}

// SetState updates a connection's state.
func (t *Table) SetState(inode uint64, state int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[inode]; ok {
		e.State = state
		t.entries[inode] = e
	}
}

// Remove deletes a connection.
func (t *Table) Remove(inode uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, inode)
}

// Len returns the number of live entries across all protos.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// AppendRender appends the authentic text of one proc file to dst.
// IPv4 addresses are little-endian hex, ports big-endian hex, exactly
// as the kernel formats them — the parser on the other side must deal
// with that. The rows are copied into the table's scratch under t.mu
// and sorted and formatted after it is released, so rendering never
// blocks the phone's Add and SetState; renderMu serialises renders on
// the scratch.
func (t *Table) AppendRender(dst []byte, p Proto) []byte {
	t.renderMu.Lock()
	defer t.renderMu.Unlock()
	rows := t.rows[:0]
	t.mu.Lock()
	if n := len(t.entries); n > cap(rows) {
		// Sized to the whole table, not grown by append's slack: the
		// scratch is kept at its peak.
		rows = make([]Entry, 0, n)
	}
	for _, e := range t.entries {
		if e.Proto == p {
			rows = append(rows, e)
		}
	}
	t.mu.Unlock()
	t.rows = rows
	slices.SortFunc(rows, func(a, b Entry) int { return cmp.Compare(a.Inode, b.Inode) })
	dst = append(dst, tableHeader...)
	for i, e := range rows {
		dst = appendRow(dst, i, e, p)
	}
	return dst
}

const tableHeader = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode\n"

// appendRow formats row i as the kernel's
// "%4d: %s %s %02X 00000000:00000000 00:00000000 00000000 %5d        0 %d 1 0000000000000000 100 0 0 10 0\n".
func appendRow(dst []byte, i int, e Entry, p Proto) []byte {
	dst = appendDec(dst, int64(i), 4)
	dst = append(dst, ": "...)
	dst = appendHexAddrPort(dst, e.Local, p)
	dst = append(dst, ' ')
	dst = appendHexAddrPort(dst, e.Remote, p)
	dst = append(dst, ' ')
	dst = appendHex(dst, int64(e.State), 2)
	dst = append(dst, " 00000000:00000000 00:00000000 00000000 "...)
	dst = appendDec(dst, int64(e.UID), 5)
	dst = append(dst, "        0 "...)
	dst = strconv.AppendUint(dst, e.Inode, 10)
	return append(dst, " 1 0000000000000000 100 0 0 10 0\n"...)
}

// appendHexAddrPort formats an endpoint as the kernel does: IPv4 as one
// little-endian 32-bit hex value, IPv6 as four little-endian 32-bit
// groups, then the port.
func appendHexAddrPort(dst []byte, ap netip.AddrPort, p Proto) []byte {
	if p == TCP || p == UDP {
		a4 := ap.Addr().As4()
		dst = appendHex(dst, int64(binary.LittleEndian.Uint32(a4[:])), 8)
	} else {
		a16 := ap.Addr().As16()
		for g := 0; g < 16; g += 4 {
			dst = appendHex(dst, int64(binary.LittleEndian.Uint32(a16[g:g+4])), 8)
		}
	}
	dst = append(dst, ':')
	return appendHex(dst, int64(ap.Port()), 4)
}

// appendHex appends v in upper-case hex, zero-padded to width columns
// after any sign, as fmt's %0<width>X does.
func appendHex(dst []byte, v int64, width int) []byte {
	var buf [24]byte
	s := strconv.AppendInt(buf[:0], v, 16)
	if s[0] == '-' {
		dst = append(dst, '-')
		s, width = s[1:], width-1
	}
	for n := len(s); n < width; n++ {
		dst = append(dst, '0')
	}
	for _, c := range s {
		if c >= 'a' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendDec appends v in decimal, right-aligned in width columns, as
// fmt's %<width>d does.
func appendDec(dst []byte, v int64, width int) []byte {
	var buf [24]byte
	s := strconv.AppendInt(buf[:0], v, 10)
	for n := len(s); n < width; n++ {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}

// AppendParse decodes the rows of a rendered proc file onto dst and
// returns the extended slice; on error it returns dst unextended. This
// is the code path MopEye runs for every SYN before lazy mapping, and
// only in the elected thread after (§3.3). The first line is the
// header. A row is split into fields on Unicode white space, as
// strings.Fields splits it; a blank row is skipped and a row of fewer
// than ten fields is an error.
func AppendParse(dst []Entry, text []byte, p Proto) ([]Entry, error) {
	n0 := len(dst)
	nl := bytes.IndexByte(text, '\n')
	if nl < 0 {
		return dst, nil
	}
	rest := text[nl+1:]
	// A row per remaining line at most, so dst grows at most once, by
	// one allocation (slices.Grow makes two under -race) and to no more
	// than it needs, since a caller's scratch is kept at its peak.
	if n := len(dst) + bytes.Count(rest, []byte{'\n'}) + 1; n > cap(dst) {
		dst = append(make([]Entry, 0, n), dst...)
	}
	for len(rest) > 0 {
		line := rest
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			line, rest = rest[:j], rest[j+1:]
		} else {
			rest = nil
		}
		e, ok, err := parseRow(line, p)
		if err != nil {
			return dst[:n0], err
		}
		if ok {
			dst = append(dst, e)
		}
	}
	return dst, nil
}

// parseRow decodes one row; ok is false for a blank line.
func parseRow(line []byte, p Proto) (e Entry, ok bool, err error) {
	// Only fields 1, 2, 3, 7 and 9 are read; the rest need only exist.
	var f [10][]byte
	n := 0
	for i := 0; n < len(f); n++ {
		start, end := nextField(line, i)
		if start == end {
			break
		}
		f[n], i = line[start:end], end
	}
	switch {
	case n == 0:
		return Entry{}, false, nil
	case n < len(f):
		return Entry{}, false, fmt.Errorf("procnet: short row %q", bytes.TrimSpace(line))
	}
	local, err := parseHexAddrPort(f[1], p)
	if err != nil {
		return Entry{}, false, err
	}
	remote, err := parseHexAddrPort(f[2], p)
	if err != nil {
		return Entry{}, false, err
	}
	st, err := strconv.ParseInt(string(f[3]), 16, 32)
	if err != nil {
		return Entry{}, false, fmt.Errorf("procnet: bad state %q: %v", f[3], err)
	}
	uid, err := strconv.Atoi(string(f[7]))
	if err != nil {
		return Entry{}, false, fmt.Errorf("procnet: bad uid %q: %v", f[7], err)
	}
	inode, err := strconv.ParseUint(string(f[9]), 10, 64)
	if err != nil {
		return Entry{}, false, fmt.Errorf("procnet: bad inode %q: %v", f[9], err)
	}
	return Entry{
		Proto: p, Local: local, Remote: remote,
		State: int(st), UID: uid, Inode: inode,
	}, true, nil
}

// nextField returns the bounds of the first field of line at or after
// i; start == end when there is none. Fields are separated by runs of
// unicode.IsSpace runes, and a byte that is not valid UTF-8 is not
// space, exactly as in strings.Fields.
func nextField(line []byte, i int) (start, end int) {
	for i < len(line) {
		size, space := spaceAt(line, i)
		if !space {
			break
		}
		i += size
	}
	start = i
	for i < len(line) {
		size, space := spaceAt(line, i)
		if space {
			break
		}
		i += size
	}
	return start, i
}

// spaceAt reports the length of the rune at line[i] and whether it is
// white space.
func spaceAt(line []byte, i int) (size int, space bool) {
	if c := line[i]; c < utf8.RuneSelf {
		return 1, c == ' ' || c-'\t' <= '\r'-'\t'
	}
	r, size := utf8.DecodeRune(line[i:])
	return size, unicode.IsSpace(r)
}

// parseHexAddrPort decodes a kernel "ADDR:PORT" field. Each number is
// converted with string(b) of at most 32 bytes for a well-formed
// field, which the compiler keeps on the stack.
func parseHexAddrPort(s []byte, p Proto) (netip.AddrPort, error) {
	colon := bytes.LastIndexByte(s, ':')
	if colon < 0 {
		return netip.AddrPort{}, fmt.Errorf("procnet: bad addr %q", s)
	}
	port, err := strconv.ParseUint(string(s[colon+1:]), 16, 16)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("procnet: bad port in %q: %v", s, err)
	}
	hexIP := s[:colon]
	if p == TCP || p == UDP {
		v, err := strconv.ParseUint(string(hexIP), 16, 32)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("procnet: bad ip in %q: %v", s, err)
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		return netip.AddrPortFrom(netip.AddrFrom4(b), uint16(port)), nil
	}
	if len(hexIP) != 32 {
		return netip.AddrPort{}, fmt.Errorf("procnet: bad ipv6 in %q", s)
	}
	var b [16]byte
	for g := 0; g < 16; g += 4 {
		v, err := strconv.ParseUint(string(hexIP[g*2:g*2+8]), 16, 32)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("procnet: bad ipv6 group in %q: %v", s, err)
		}
		binary.LittleEndian.PutUint32(b[g:g+4], uint32(v))
	}
	return netip.AddrPortFrom(netip.AddrFrom16(b), uint16(port)), nil
}

// CostModel charges simulated time per proc parse.
type CostModel struct {
	// Base is the fixed cost of opening and reading the file.
	Base time.Duration
	// PerEntry is the marginal cost per table row.
	PerEntry time.Duration
	// SpikeProb and SpikeMax add an occasional scheduling spike.
	SpikeProb float64
	SpikeMax  time.Duration
}

// AndroidParseCost reproduces the Figure 5(a) distribution on a table of
// a few dozen rows: mostly 5–15 ms with a >15 ms tail.
func AndroidParseCost() CostModel {
	return CostModel{
		Base:      4 * time.Millisecond,
		PerEntry:  120 * time.Microsecond,
		SpikeProb: 0.12,
		SpikeMax:  18 * time.Millisecond,
	}
}

// ZeroParseCost is free, for deterministic tests.
func ZeroParseCost() CostModel { return CostModel{} }

// Source supplies the raw text of one proc net table: AppendRender
// appends it to dst and returns the extended buffer. *Table is the
// emulated kernel table; ProcFS reads a live proc mount on the real
// device data plane.
type Source interface {
	AppendRender(dst []byte, p Proto) []byte
}

// ProcFS renders the live kernel tables from a proc mount. An
// unreadable file renders as an empty table (header only): the mapper
// treats a socket it cannot find as unattributable, which is the right
// degradation when a table is briefly unavailable.
type ProcFS struct {
	// Root is the proc mount point; empty means "/proc".
	Root string
}

// AppendRender reads /proc/net/<proto> straight into dst.
func (f ProcFS) AppendRender(dst []byte, p Proto) []byte {
	root := f.Root
	if root == "" {
		root = "/proc"
	}
	file, err := os.Open(filepath.Join(root, "net", p.String()))
	if err != nil {
		return append(dst, tableHeader...)
	}
	defer file.Close()
	n0 := len(dst)
	for {
		// A proc file reports size 0, so read until EOF.
		dst = slices.Grow(dst, 4096)
		n, err := file.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst
		}
		if err != nil {
			return append(dst[:n0], tableHeader...)
		}
	}
}

// Reader is the engine-side view: it renders, charges the parse cost,
// and parses. One Reader per engine.
type Reader struct {
	src  Source
	clk  clock.Clock
	cost CostModel

	// textMu guards text, the rendered file, for one render and parse;
	// it is never held while the parse cost is charged.
	textMu sync.Mutex
	text   []byte // kept at its peak size

	mu     sync.Mutex
	rng    *rand.Rand
	parses int
	spent  time.Duration
	costs  []time.Duration
}

// NewReader creates a reader over a table.
func NewReader(t *Table, clk clock.Clock, cost CostModel, seed int64) *Reader {
	return NewReaderFrom(t, clk, cost, seed)
}

// NewReaderFrom creates a reader over any table source — the seam the
// real data plane uses to parse the live /proc/net tables instead of
// the emulated kernel's.
func NewReaderFrom(src Source, clk clock.Clock, cost CostModel, seed int64) *Reader {
	return &Reader{src: src, clk: clk, cost: cost, rng: rand.New(rand.NewSource(seed))}
}

// AppendParse reads one proc file onto dst, charging the modelled cost
// in simulated time. On error it returns dst unextended.
func (r *Reader) AppendParse(dst []Entry, p Proto) ([]Entry, error) {
	n0 := len(dst)
	r.textMu.Lock()
	r.text = r.src.AppendRender(r.text[:0], p)
	dst, err := AppendParse(dst, r.text, p)
	r.textMu.Unlock()
	if err != nil {
		return dst, err
	}
	cost := r.drawCost(len(dst) - n0)
	if cost > 0 {
		r.clk.Sleep(cost)
	}
	r.mu.Lock()
	r.parses++
	r.spent += cost
	r.costs = append(r.costs, cost)
	r.mu.Unlock()
	return dst, nil
}

// AppendAll reads tcp and tcp6 onto dst (the SYN mapping path parses
// both, §3.3).
func (r *Reader) AppendAll(dst []Entry) ([]Entry, error) { return r.appendPair(dst, TCP, TCP6) }

// AppendAllUDP reads udp and udp6 onto dst — the UDP relay's
// attribution path. DNS and other datagram sockets appear here with
// their owner UID just as TCP connections appear in tcp/tcp6 (§2.2).
func (r *Reader) AppendAllUDP(dst []Entry) ([]Entry, error) { return r.appendPair(dst, UDP, UDP6) }

func (r *Reader) appendPair(dst []Entry, v4, v6 Proto) ([]Entry, error) {
	n0 := len(dst)
	dst, err := r.AppendParse(dst, v4)
	if err == nil {
		dst, err = r.AppendParse(dst, v6)
	}
	if err != nil {
		return dst[:n0], err
	}
	return dst, nil
}

// Parse reads one proc file into a new slice.
func (r *Reader) Parse(p Proto) ([]Entry, error) { return r.AppendParse(nil, p) }

// ParseAll reads tcp and tcp6 into a new slice.
func (r *Reader) ParseAll() ([]Entry, error) { return r.AppendAll(nil) }

func (r *Reader) drawCost(entries int) time.Duration {
	c := r.cost.Base + time.Duration(entries)*r.cost.PerEntry
	if r.cost.SpikeProb > 0 {
		r.mu.Lock()
		spike := r.rng.Float64() < r.cost.SpikeProb
		var extra time.Duration
		if spike && r.cost.SpikeMax > 0 {
			extra = time.Duration(r.rng.Int63n(int64(r.cost.SpikeMax)))
		}
		r.mu.Unlock()
		c += extra
	}
	return c
}

// Stats reports parses performed, total simulated time charged, and the
// per-parse cost samples (for the Figure 5 CDFs).
func (r *Reader) Stats() (parses int, spent time.Duration, samples []time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.parses, r.spent, append([]time.Duration(nil), r.costs...)
}

// PackageManager maps UIDs to app package names, the role Android's
// PackageManager plays for MopEye (§2.2).
type PackageManager struct {
	mu       sync.Mutex
	apps     map[int]string
	fallback func(uid int) (string, bool)
}

// NewPackageManager creates an empty registry.
func NewPackageManager() *PackageManager {
	return &PackageManager{apps: make(map[int]string)}
}

// Install registers an app name under a UID.
func (pm *PackageManager) Install(uid int, name string) {
	pm.mu.Lock()
	pm.apps[uid] = name
	pm.mu.Unlock()
}

// SetFallback installs a resolver consulted for UIDs with no installed
// package. The real data plane uses it to name host UIDs (user
// accounts) the way Android's PackageManager names app UIDs; f must be
// safe for concurrent use.
func (pm *PackageManager) SetFallback(f func(uid int) (string, bool)) {
	pm.mu.Lock()
	pm.fallback = f
	pm.mu.Unlock()
}

// NameForUID resolves a UID; ok is false for unknown UIDs.
func (pm *PackageManager) NameForUID(uid int) (string, bool) {
	pm.mu.Lock()
	n, ok := pm.apps[uid]
	f := pm.fallback
	pm.mu.Unlock()
	if !ok && f != nil {
		return f(uid)
	}
	return n, ok
}

// Len returns the number of installed apps.
func (pm *PackageManager) Len() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return len(pm.apps)
}
