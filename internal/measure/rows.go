package measure

import (
	"net/netip"
	"time"
)

// This file is how a Store holds its records. A phone keeps every
// measurement it makes, one per flow, for as long as it runs, so the
// log is the largest structure it retains. Each record is stored as a
// row: a fixed-size value without pointers, so the GC never scans the
// log, whose strings, destination and clock zone are ids into
// interning tables that grow only with distinct values.
//
// Every field reads back unchanged except At, which reads back as
// At.Round(0): the same instant and Location, without the monotonic
// clock reading. A zero At reads back as time.Time{}.

// row is one stored record: 48 bytes, no pointers.
type row struct {
	uid  int64
	rtt  int64
	sec  int64 // At.Unix()
	nsec int32 // At.Nanosecond(); -1 for a zero At
	app  uint32
	dom  uint32
	dst  uint32
	ctx  uint32
}

// recContext holds the fields that change only with the network or the
// clock's zone, so a run stores a handful of them.
type recContext struct {
	kind    Kind
	netType string
	isp     string
	country string
	device  string
	loc     *time.Location
}

// interner assigns ids to distinct values in first-seen order. Id 0 is
// the zero value, which needs no entry; a context always carries a
// Location, so it never has id 0.
type interner[T comparable] struct {
	vals []T
	ids  map[T]uint32
}

func (in *interner[T]) id(v T) uint32 {
	var zero T
	if v == zero {
		return 0
	}
	if id, ok := in.ids[v]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[T]uint32)
		in.vals = append(in.vals, zero)
	}
	id := uint32(len(in.vals))
	in.vals = append(in.vals, v)
	in.ids[v] = id
	return id
}

func (in *interner[T]) value(id uint32) T {
	if id == 0 {
		var zero T
		return zero
	}
	return in.vals[id]
}

// tables are a Store's interning tables, guarded by Store.mu.
type tables struct {
	strs interner[string]
	dsts interner[netip.AddrPort]
	ctxs interner[recContext]
}

// row interns r's values and returns the row that holds it.
func (t *tables) row(r Record) row {
	w := row{
		uid:  int64(r.UID),
		rtt:  int64(r.RTT),
		nsec: -1,
		app:  t.strs.id(r.App),
		dom:  t.strs.id(r.Domain),
		dst:  t.dsts.id(r.Dst),
	}
	w.ctx = t.ctxs.id(recContext{
		kind: r.Kind, netType: r.NetType, isp: r.ISP, country: r.Country, device: r.Device,
		loc: r.At.Location(),
	})
	if !r.At.IsZero() {
		w.sec, w.nsec = r.At.Unix(), int32(r.At.Nanosecond())
	}
	return w
}

// record rebuilds the Record a row holds. It allocates nothing: the
// strings and the Location are the tables' own.
func (t *tables) record(w row) Record {
	c := t.ctxs.value(w.ctx)
	r := Record{
		Kind:    c.kind,
		App:     t.strs.value(w.app),
		UID:     int(w.uid),
		Dst:     t.dsts.value(w.dst),
		Domain:  t.strs.value(w.dom),
		RTT:     time.Duration(w.rtt),
		NetType: c.netType,
		ISP:     c.isp,
		Country: c.country,
		Device:  c.device,
	}
	if w.nsec >= 0 {
		r.At = time.Unix(w.sec, int64(w.nsec)).In(c.loc)
	}
	return r
}

// interned reports how many distinct non-zero values the tables hold.
func (t *tables) interned() int {
	return len(t.strs.ids) + len(t.dsts.ids) + len(t.ctxs.ids)
}
