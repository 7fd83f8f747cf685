package measure

import (
	"net/netip"
	"time"
)

// This file is how a Store holds its records. A phone keeps every
// measurement it makes, one per flow, for as long as it runs, so the
// log is the largest structure it retains. Each record is stored as a
// row: a fixed-size value without pointers, so the GC never scans the
// log, whose source, domain and destination are ids into interning
// tables that grow only with distinct values.
//
// Every field reads back unchanged except At, which reads back as
// At.Round(0): the same instant and Location, without the monotonic
// clock reading. A zero At reads back as time.Time{}.

// row is one stored record: 32 bytes, no pointers, no padding.
type row struct {
	rtt  int64
	sec  int64 // At.Unix()
	nsec int32 // At.Nanosecond(); -1 for a zero At
	src  uint32
	dom  uint32
	dst  uint32
}

// source holds the fields that change only with the app, the network
// or the clock's zone, so a run stores a handful of them.
type source struct {
	kind    Kind
	uid     int
	app     string
	netType string
	isp     string
	country string
	device  string
	loc     *time.Location
}

// interner assigns ids to distinct values in first-seen order. Id 0 is
// the zero value, which needs no entry; a source always carries a
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
	doms interner[string]
	dsts interner[netip.AddrPort]
	srcs interner[source]
}

// row interns r's values and returns the row that holds it.
func (t *tables) row(r Record) row {
	w := row{
		rtt:  int64(r.RTT),
		nsec: -1,
		dom:  t.doms.id(r.Domain),
		dst:  t.dsts.id(r.Dst),
	}
	w.src = t.srcs.id(source{
		kind: r.Kind, uid: r.UID, app: r.App,
		netType: r.NetType, isp: r.ISP, country: r.Country, device: r.Device,
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
	src := t.srcs.value(w.src)
	r := Record{
		Kind:    src.kind,
		App:     src.app,
		UID:     src.uid,
		Dst:     t.dsts.value(w.dst),
		Domain:  t.doms.value(w.dom),
		RTT:     time.Duration(w.rtt),
		NetType: src.netType,
		ISP:     src.isp,
		Country: src.country,
		Device:  src.device,
	}
	if w.nsec >= 0 {
		r.At = time.Unix(w.sec, int64(w.nsec)).In(src.loc)
	}
	return r
}

// interned reports how many distinct non-zero values the tables hold.
func (t *tables) interned() int {
	return len(t.doms.ids) + len(t.dsts.ids) + len(t.srcs.ids)
}
