package procnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clock"
)

// renderOracle is the fmt-based renderer AppendRender replaced, kept
// as the reference for its byte-exact output.
func renderOracle(t *Table, p Proto) string {
	t.mu.Lock()
	var rows []Entry
	for _, e := range t.entries {
		if e.Proto == p {
			rows = append(rows, e)
		}
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Inode < rows[j].Inode })
	var b strings.Builder
	b.WriteString("  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode\n")
	for i, e := range rows {
		fmt.Fprintf(&b, "%4d: %s %s %02X 00000000:00000000 00:00000000 00000000 %5d        0 %d 1 0000000000000000 100 0 0 10 0\n",
			i, hexAddrPortOracle(e.Local, p), hexAddrPortOracle(e.Remote, p), e.State, e.UID, e.Inode)
	}
	return b.String()
}

func hexAddrPortOracle(ap netip.AddrPort, p Proto) string {
	if p == TCP || p == UDP {
		a4 := ap.Addr().As4()
		v := binary.LittleEndian.Uint32(a4[:])
		return fmt.Sprintf("%08X:%04X", v, ap.Port())
	}
	a16 := ap.Addr().As16()
	var b strings.Builder
	for g := 0; g < 4; g++ {
		v := binary.LittleEndian.Uint32(a16[g*4 : g*4+4])
		fmt.Fprintf(&b, "%08X", v)
	}
	return fmt.Sprintf("%s:%04X", b.String(), ap.Port())
}

// parseOracle is the strings.Fields/strconv parser AppendParse
// replaced, kept as the reference for what it accepts and returns.
func parseOracle(text string, p Proto) ([]Entry, error) {
	var out []Entry
	lines := strings.Split(text, "\n")
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 10 {
			return nil, fmt.Errorf("procnet: short row %q", line)
		}
		local, err := parseHexAddrPortOracle(fields[1], p)
		if err != nil {
			return nil, err
		}
		remote, err := parseHexAddrPortOracle(fields[2], p)
		if err != nil {
			return nil, err
		}
		st, err := strconv.ParseInt(fields[3], 16, 32)
		if err != nil {
			return nil, fmt.Errorf("procnet: bad state %q: %v", fields[3], err)
		}
		uid, err := strconv.Atoi(fields[7])
		if err != nil {
			return nil, fmt.Errorf("procnet: bad uid %q: %v", fields[7], err)
		}
		inode, err := strconv.ParseUint(fields[9], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("procnet: bad inode %q: %v", fields[9], err)
		}
		out = append(out, Entry{
			Proto: p, Local: local, Remote: remote,
			State: int(st), UID: uid, Inode: inode,
		})
	}
	return out, nil
}

func parseHexAddrPortOracle(s string, p Proto) (netip.AddrPort, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return netip.AddrPort{}, fmt.Errorf("procnet: bad addr %q", s)
	}
	port, err := strconv.ParseUint(s[colon+1:], 16, 16)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("procnet: bad port in %q: %v", s, err)
	}
	hexIP := s[:colon]
	if p == TCP || p == UDP {
		v, err := strconv.ParseUint(hexIP, 16, 32)
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
	for g := 0; g < 4; g++ {
		v, err := strconv.ParseUint(hexIP[g*8:g*8+8], 16, 32)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("procnet: bad ipv6 group in %q: %v", s, err)
		}
		binary.LittleEndian.PutUint32(b[g*4:g*4+4], uint32(v))
	}
	return netip.AddrPortFrom(netip.AddrFrom16(b), uint16(port)), nil
}

// AppendRender writes exactly what the fmt renderer wrote, for all four
// files: UIDs wider than %5d and negative ones, row indexes past %4d,
// inodes near the top of uint64 and every state byte.
func TestAppendRenderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	addr := func(v6 bool) netip.Addr {
		if v6 {
			var b [16]byte
			rng.Read(b[:])
			return netip.AddrFrom16(b)
		}
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	uids := []int{0, 1, 9999, 99999, 100000, 1234567, math.MaxInt32, math.MaxInt64, -1, -12345}
	for _, p := range []Proto{TCP, TCP6, UDP, UDP6} {
		v6 := p == TCP6 || p == UDP6
		tbl := NewTable()
		tbl.nextInode = math.MaxUint64 - 20000
		rows := 10050 // indexes past 9999 take five columns of a %4d
		if p == UDP || p == UDP6 {
			rows = 300
		}
		for i := 0; i < rows; i++ {
			uid := rng.Intn(200000)
			if i < len(uids) {
				uid = uids[i]
			}
			tbl.Add(Entry{
				Proto:  p,
				Local:  netip.AddrPortFrom(addr(v6), uint16(rng.Intn(65536))),
				Remote: netip.AddrPortFrom(addr(v6), uint16(rng.Intn(65536))),
				State:  i % 256,
				UID:    uid,
			})
		}
		// Rows of the other files never leak into this one.
		other := TCP
		if p == TCP {
			other = UDP
		}
		tbl.Add(Entry{Proto: other, Local: netip.AddrPortFrom(addr(other == TCP6 || other == UDP6), 1), Remote: netip.AddrPortFrom(addr(false), 2)})

		want := renderOracle(tbl, p)
		got := tbl.AppendRender([]byte("prefix"), p)
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%v: AppendRender overwrote dst", p)
		}
		if got := string(got[len("prefix"):]); got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("%v: line %d differs:\n got %q\nwant %q", p, i, gl[i], wl[i])
				}
			}
			t.Fatalf("%v: %d lines, want %d", p, len(gl), len(wl))
		}
	}
}

// FuzzParseProcNet fuzzes the /proc/net parser every lazy mapping
// runs, whose input on the real data plane is the kernel's text:
// AppendParse accepts and rejects exactly the inputs the
// strings.Fields parser did, and returns the same entries. The corpus
// holds IPv4 and IPv6 rows, a header-only file, the garbage rows of
// TestParseRejectsGarbage, signs, overflows, Unicode spaces and bytes
// that are not UTF-8.
func FuzzParseProcNet(f *testing.F) {
	tbl := NewTable()
	tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:40001"), Remote: ap("93.184.216.34:443"), State: StateEstablished, UID: 10083})
	tbl.Add(Entry{Proto: TCP6, Local: ap("[fd00::2]:40001"), Remote: ap("[2606:2800:220:1::1]:443"), State: StateSynSent, UID: 10090})
	f.Add(tbl.AppendRender(nil, TCP), byte(TCP))
	f.Add(tbl.AppendRender(nil, TCP6), byte(TCP6))
	f.Fuzz(func(t *testing.T, text []byte, proto byte) {
		p := Proto(proto % 4)
		want, wantErr := parseOracle(string(text), p)
		sentinel := Entry{Proto: UDP6, UID: -7, Inode: 7}
		got, err := AppendParse([]Entry{sentinel}, text, p)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v on %q: error %v, oracle %v", p, text, err, wantErr)
		}
		if len(got) == 0 || got[0] != sentinel {
			t.Fatalf("%v on %q: dst's first entry clobbered", p, text)
		}
		if err != nil {
			if len(got) != 1 {
				t.Fatalf("%v on %q: failed parse extended dst to %d entries", p, text, len(got))
			}
			return
		}
		if got := got[1:]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%v on %q:\n got %+v\nwant %+v", p, text, got, want)
		}
	})
}

// ParseAll of a 30-row table allocates its result and nothing else: one
// allocation per file, since the text is kept by the Reader and the
// rows by the Table.
func TestParseAllAllocs(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 15; i++ {
		tbl.Add(Entry{Proto: TCP, Local: ap("10.0.0.2:1"), Remote: ap("1.1.1.1:1"), UID: i})
		tbl.Add(Entry{Proto: TCP6, Local: ap("[fd00::2]:1"), Remote: ap("[fd00::3]:1"), UID: i})
	}
	r := NewReader(tbl, clock.NewReal(), ZeroParseCost(), 1)
	parse := func() {
		if e, err := r.ParseAll(); err != nil || len(e) != 30 {
			t.Fatalf("ParseAll: %d entries, %v", len(e), err)
		}
	}
	parse()
	n := testing.AllocsPerRun(100, parse)
	t.Logf("%.2f allocations per ParseAll", n)
	if n > 2 {
		t.Errorf("ParseAll of 30 rows allocates %.1f objects, want at most 2", n)
	}
}
