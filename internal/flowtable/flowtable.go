// Package flowtable provides the engine's sharded flow-state table.
//
// The paper's MopEye keeps one flat map from FlowKey to TCP client
// because a phone relays a single user's traffic through a single
// MainWorker thread (Figure 4). Scaling the relay across cores makes
// that map — and the one mutex in front of it — the serialisation
// point for every packet, every socket event, and every stats snapshot.
//
// The table here hashes each flow to one of N shards, each with its own
// mutex and map. Lookups for different flows proceed in parallel, and
// the shard index doubles as the flow's worker pin: the engine routes
// all events of a flow to the worker that owns its shard, so per-flow
// ordering is preserved without any cross-worker locking.
package flowtable

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// DefaultShards is the shard count used when New is given n <= 0. It is
// deliberately larger than any realistic worker count so that shard →
// worker assignment spreads evenly.
const DefaultShards = 32

// Hash returns a stable 64-bit hash of a flow key. It mixes five
// words — the protocol and both ports, then each address's two 8-byte
// halves (IPv4 as its IPv4-mapped IPv6 form) — with one multiply and
// shift per word, and ends with a Murmur3-style avalanche so every
// input bit reaches every output bit, the low ones included. There is
// no per-process seed: the same key always lands in the same shard,
// across tables of any size and across runs, so worker pinning is
// reproducible.
//
// The avalanche matters: flow keys are structured — a source port
// counting in step with a source address — and the shard index is the
// hash's low bits, which a multiply alone leaves depending on the
// input's low bits only.
func Hash(k packet.FlowKey) uint64 {
	src, dst := k.Src.Addr().As16(), k.Dst.Addr().As16()
	h := uint64(k.Proto)<<32 | uint64(k.Src.Port())<<16 | uint64(k.Dst.Port())
	h = mix(h, binary.LittleEndian.Uint64(src[:8]))
	h = mix(h, binary.LittleEndian.Uint64(src[8:]))
	h = mix(h, binary.LittleEndian.Uint64(dst[:8]))
	h = mix(h, binary.LittleEndian.Uint64(dst[8:]))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// mix folds one word into h.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 1099511628211
	return h ^ h>>32
}

// shard is one lock domain: a mutex and the flows hashed to it.
type shard[V any] struct {
	mu    sync.Mutex
	flows map[packet.FlowKey]V
}

// Table is an N-way sharded flow map. The zero value is not usable;
// construct with New.
type Table[V any] struct {
	shards []shard[V]
	mask   uint64
	size   atomic.Int64
}

// New creates a table with n shards, rounded up to a power of two so
// the shard index is a mask, not a division. n <= 0 selects
// DefaultShards.
func New[V any](n int) *Table[V] {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	t := &Table[V]{shards: make([]shard[V], size), mask: uint64(size - 1)}
	for i := range t.shards {
		t.shards[i].flows = make(map[packet.FlowKey]V)
	}
	return t
}

// Shard returns the shard index a key hashes to. The engine pins each
// flow to worker Shard(key) % workers.
func (t *Table[V]) Shard(k packet.FlowKey) int {
	return int(Hash(k) & t.mask)
}

// Get returns the value stored for k.
func (t *Table[V]) Get(k packet.FlowKey) (V, bool) {
	s := &t.shards[t.Shard(k)]
	s.mu.Lock()
	v, ok := s.flows[k]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under k, replacing any existing value.
func (t *Table[V]) Put(k packet.FlowKey, v V) {
	s := &t.shards[t.Shard(k)]
	s.mu.Lock()
	_, existed := s.flows[k]
	s.flows[k] = v
	s.mu.Unlock()
	if !existed {
		t.size.Add(1)
	}
}

// Delete removes k. It reports whether a value was present.
func (t *Table[V]) Delete(k packet.FlowKey) bool {
	s := &t.shards[t.Shard(k)]
	s.mu.Lock()
	_, ok := s.flows[k]
	delete(s.flows, k)
	s.mu.Unlock()
	if ok {
		t.size.Add(-1)
	}
	return ok
}

// Len returns the stored flow count, maintained as an atomic so the
// engine can report connection counts on the SYN hot path without
// touching any shard lock.
func (t *Table[V]) Len() int {
	return int(t.size.Load())
}

// ForEach calls fn for every stored flow, one shard at a time. fn runs
// outside the shard lock (entries are copied per shard first), so it
// may call back into the table.
func (t *Table[V]) ForEach(fn func(k packet.FlowKey, v V)) {
	type entry struct {
		k packet.FlowKey
		v V
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		batch := make([]entry, 0, len(s.flows))
		for k, v := range s.flows {
			batch = append(batch, entry{k, v})
		}
		s.mu.Unlock()
		for _, e := range batch {
			fn(e.k, e.v)
		}
	}
}

// Drain removes every flow and returns the removed values — the
// engine's shutdown sweep.
func (t *Table[V]) Drain() []V {
	var out []V
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for k, v := range s.flows {
			out = append(out, v)
			delete(s.flows, k)
		}
		s.mu.Unlock()
	}
	t.size.Add(int64(-len(out)))
	return out
}
