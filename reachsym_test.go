package repro

import (
	"regexp"
	"strings"
	"testing"
)

// closurePart matches a dot-separated element of a symbol name that the
// compiler makes for a closure or a wrapper: .func1, .func1.2,
// .deferwrap1, .gowrap1. No declaration in the source carries one.
var closurePart = regexp.MustCompile(`^(func|deferwrap|gowrap)?[0-9]+$`)

// symbolKey maps a text symbol of a linked binary to the key that the
// reachability check gives a declaration under internal/: the package
// path below internal/, then the receiver's type name if there is one,
// then the function's name, joined by dots ("flowtable.Table.Get",
// "tun/lintun.TUN.Read"). Type arguments are dropped, so every
// instantiation of a generic function or method maps to its one
// declaration. It reports false for a symbol outside internal/ and for
// the closures and method-value wrappers the compiler makes (.funcN,
// .deferwrapN, .gowrapN, -fm).
func symbolKey(sym string) (string, bool) {
	rest, ok := strings.CutPrefix(sym, "repro/internal/")
	if !ok {
		return "", false
	}
	rest = stripTypeArgs(rest)
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg, name := rest[:slash+1+dot], rest[slash+1+dot+1:]
	name = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(name)
	parts := strings.Split(name, ".")
	if len(parts) > 2 {
		return "", false
	}
	for _, p := range parts {
		if p == "" || strings.HasSuffix(p, "-fm") || closurePart.MatchString(p) {
			return "", false
		}
	}
	return pkg + "." + name, true
}

// stripTypeArgs deletes every bracketed type-argument list, nested ones
// included: "(*Table[go.shape.[]uint8]).Get" becomes "(*Table).Get".
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func TestSymbolKey(t *testing.T) {
	for _, c := range []struct {
		sym, key string
		ok       bool
	}{
		{"repro/internal/flowtable.Hash", "flowtable.Hash", true},
		{"repro/internal/flowtable.(*Table[go.shape.*uint8]).Get", "flowtable.Table.Get", true},
		{"repro/internal/flowtable.(*Table[*repro/internal/relay.TCPClient]).Len", "flowtable.Table.Len", true},
		{"repro/internal/flowtable.New[go.shape.*uint8]", "flowtable.New", true},
		{"repro/internal/fifoq.(*Inbox[go.shape.struct { B []uint8 }]).Recv", "fifoq.Inbox.Recv", true},
		{"repro/internal/netsim.(*scheduler).stop", "netsim.scheduler.stop", true},
		{"repro/internal/measure.source.key", "measure.source.key", true},
		{"repro/internal/tun/lintun.(*TUN).Read", "tun/lintun.TUN.Read", true},
		{"repro/internal/baselines/sniffer.New", "baselines/sniffer.New", true},
		{"repro/internal/engine.(*Engine).Start.func1", "", false},
		{"repro/internal/engine.(*Engine).Start.func1.2", "", false},
		{"repro/internal/engine.(*Engine).Stop.deferwrap1", "", false},
		{"repro/internal/engine.(*Engine).Start.gowrap1", "", false},
		{"repro/internal/experiments.RunTable1.func3.deferwrap1", "", false},
		{"repro/internal/engine.(*Engine).runWorker-fm", "", false},
		{"repro/internal/measure.init.0", "", false},
		{"repro/internal/measure.map.init.0", "", false},
		{"repro/mopeye.(*Phone).Close", "", false},
		{"main.main", "", false},
	} {
		key, ok := symbolKey(c.sym)
		if key != c.key || ok != c.ok {
			t.Errorf("symbolKey(%q) = %q, %v; want %q, %v", c.sym, key, ok, c.key, c.ok)
		}
	}
}
