// Package measure defines the measurement records MopEye produces and a
// thread-safe store with the aggregation helpers the evaluation uses
// (per-app medians, RTT distributions, DNS/TCP splits).
//
// One Record corresponds to one opportunistic measurement: a TCP
// connect() SYN/SYN-ACK RTT attributed to an app, or a DNS
// query/response RTT (§2.4). The crowdsourcing layer (package crowd)
// generates the same records statistically; everything downstream
// operates on this type.
package measure

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Kind distinguishes the two measurement types MopEye supports.
type Kind int

// Measurement kinds.
const (
	KindTCP Kind = iota
	KindDNS
)

func (k Kind) String() string {
	if k == KindDNS {
		return "DNS"
	}
	return "TCP"
}

// Record is one RTT measurement with its attribution context.
type Record struct {
	Kind    Kind
	App     string // package name; "system.dns" for DNS (system-wide, §2.2)
	UID     int
	Dst     netip.AddrPort
	Domain  string // server domain: always on DNS records; none on the engine's TCP records, which it does not yet match to a DNS answer
	RTT     time.Duration
	At      time.Time
	NetType string // "WiFi", "LTE", "3G", "2G"
	ISP     string
	Country string
	// Device identifies the contributing phone in crowdsourced datasets
	// (empty for single-phone engine runs).
	Device string
}

// Millis returns the record's RTT in milliseconds — the unit every
// figure in the paper, and every collector-side sketch, aggregates in.
func (r Record) Millis() float64 {
	return r.RTT.Seconds() * 1000
}

// NetKey returns the record's "<kind>/<nettype>" aggregation key, the
// dimension the collector's per-network sketches are maintained under
// (e.g. "TCP/WiFi", "DNS/LTE"). Records without a network type group
// under "<kind>/?".
func (r Record) NetKey() string {
	nt := r.NetType
	if nt == "" {
		nt = "?"
	}
	return r.Kind.String() + "/" + nt
}

// Store collects records in one row log, and every reader is a cursor
// into it (broadcast.go): a subscription follows the log as it grows,
// Snapshot and Kind read it up to its length at the call. Both observe
// the same records in the same order, and neither holds the mutex Add
// takes for longer than one 64-row claim. Records are held as 32-byte
// pointer-free rows over interned sources, domains and destinations
// (rows.go), so At reads back as At.Round(0).
type Store struct {
	mu   sync.Mutex
	recs []row
	tabs tables

	// subs are the live subscriptions; subsClosed marks the broadcast
	// layer shut down (CloseSubscribers). Both guarded by mu.
	subs       []*Subscription
	subsClosed bool
	// dropped totals lag drops across all subscribers ever.
	dropped atomic.Uint64
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{} }

// Add appends one record and wakes every subscriber. With no
// subscribers the publish step is a len check — the engine's record
// path pays nothing for the broadcast layer it isn't using.
// Subscribers read the record back from its row, as Snapshot does, so
// the stream and the snapshot agree record for record.
func (s *Store) Add(r Record) {
	s.mu.Lock()
	s.recs = append(s.recs, s.tabs.row(r))
	if len(s.subs) > 0 {
		s.publish()
	}
	s.mu.Unlock()
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// InternedValues returns the number of distinct non-empty domains,
// non-zero destinations and sources (app, UID, network and zone) the
// store's rows refer to: the part of its memory that grows with
// distinct values, not with records.
func (s *Store) InternedValues() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tabs.interned()
}

// Snapshot copies all records out.
func (s *Store) Snapshot() []Record { return s.span(nil) }

// Kind returns records of one kind.
func (s *Store) Kind(k Kind) []Record {
	return s.span(func(r Record) bool { return r.Kind == k })
}

// span reads the records keep accepts (nil: all) from the rows in the
// log at the call, through a Subscription no Add ever moves: it drops
// nothing, and keep runs outside s.mu, so it may add to the store.
func (s *Store) span(keep func(Record) bool) []Record {
	s.mu.Lock()
	sub := Subscription{st: s, keep: keep, end: len(s.recs)}
	s.mu.Unlock()
	var out []Record
	if keep == nil && sub.end > 0 {
		out = make([]Record, 0, sub.end)
	}
	for {
		var r Record
		if ok, _ := sub.read(&r); !ok {
			return out
		}
		out = append(out, r)
	}
}

// RTTMillis extracts RTTs in milliseconds from a record set.
func RTTMillis(recs []Record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Millis()
	}
	return out
}

// ByApp groups records by app name.
func ByApp(recs []Record) map[string][]Record {
	m := make(map[string][]Record)
	for _, r := range recs {
		m[r.App] = append(m[r.App], r)
	}
	return m
}

// ByDomain groups records by domain, skipping records without one.
func ByDomain(recs []Record) map[string][]Record {
	m := make(map[string][]Record)
	for _, r := range recs {
		if r.Domain != "" {
			m[r.Domain] = append(m[r.Domain], r)
		}
	}
	return m
}

// MedianRTT returns the median RTT in milliseconds of a record set.
func MedianRTT(recs []Record) float64 {
	return stats.Median(RTTMillis(recs))
}

// AppMedians returns each app's median RTT (ms) for apps with at least
// minN records — the basis of Figure 9(b) and Table 5, which use medians
// "because the median is less affected by RTT outliers".
func AppMedians(recs []Record, minN int) map[string]float64 {
	out := make(map[string]float64)
	for app, rs := range ByApp(recs) {
		if len(rs) >= minN {
			out[app] = MedianRTT(rs)
		}
	}
	return out
}
