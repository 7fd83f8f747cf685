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
	Domain  string // server domain when known (DNS always; TCP via prior DNS)
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

// Store collects records and broadcasts each one, at Add time, to any
// live subscriptions (broadcast.go). The snapshot accessors and the
// subscription stream observe the same records in the same order; the
// stream is the push view, the snapshot the pull view. Records are
// held as pointer-free rows over interning tables (rows.go), so At
// reads back as At.Round(0).
type Store struct {
	mu   sync.Mutex
	recs []row
	tabs tables

	// subs are the live subscriptions; subsClosed marks the broadcast
	// layer shut down (CloseSubscribers). Both guarded by mu.
	subs       []*Subscription
	subsClosed bool
	// dropped totals ring-full drops across all subscribers ever.
	dropped atomic.Uint64
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{} }

// Add appends one record and publishes it to every subscriber. With no
// subscribers the publish step is a len check — the engine's record
// path pays nothing for the broadcast layer it isn't using. What is
// published is the record as stored, read back from its row, so the
// stream and the snapshot agree record for record.
func (s *Store) Add(r Record) {
	s.mu.Lock()
	w := s.tabs.row(r)
	s.recs = append(s.recs, w)
	if len(s.subs) > 0 {
		s.publish(s.tabs.record(w))
	}
	s.mu.Unlock()
}

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// InternedValues returns the number of distinct non-empty strings,
// non-zero destinations and network contexts the store's rows refer
// to: the part of its memory that grows with distinct values, not with
// records.
func (s *Store) InternedValues() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tabs.interned()
}

// Snapshot copies all records out.
func (s *Store) Snapshot() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recs) == 0 {
		return nil
	}
	out := make([]Record, len(s.recs))
	for i, w := range s.recs {
		out[i] = s.tabs.record(w)
	}
	return out
}

// Filter returns the records satisfying keep.
func (s *Store) Filter(keep func(Record) bool) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, w := range s.recs {
		if r := s.tabs.record(w); keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Kind returns records of one kind.
func (s *Store) Kind(k Kind) []Record {
	return s.Filter(func(r Record) bool { return r.Kind == k })
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
