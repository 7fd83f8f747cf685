package crowd

// The collector's duplicate filter is a sequence window per (device,
// epoch) pair — the dedup of TCP's receive window and of IPsec
// anti-replay (RFC 4303 §3.4.3) — so its memory grows with devices, not
// with the batches a long-running server has taken. A phone's Collector
// numbers its batches 1, 2, … in an epoch of its own (its nonce), and
// its HTTPTransport retries each batch before it sends the next one, so
// a redelivery arrives close behind the batch it repeats: within the 64
// seqs a window remembers. A seq 64 or more below the pair's top is
// refused as a duplicate. The transport cannot send one that is new:
// by the time it sends a batch 64 seqs on, it has long finished with
// that one, delivered or given up.

// windowBits is the seqs one window decides: its top and the 63 below.
const windowBits = 64

// dedupPairs caps the windows a server holds, split evenly over the
// ingest shards (256 each). The paper's 2,351-phone fleet puts about
// 147 pairs in a shard; at its share a shard evicts its least recently
// seen pair (counted in mopeye_collector_dedup_evictions_total), and a
// redelivery of that pair's last batch would then count twice.
const dedupPairs = 4096

// pairKey names one count of seqs: a device and the epoch its
// collector numbers in ("" for a batch that carries none).
type pairKey struct{ device, epoch string }

// window is one pair's verdicts: top is the highest seq accepted, and
// bit i of bits is set when seq top-i was accepted (bit 0, top itself,
// always is).
type window struct {
	top  int
	bits uint64
}

// seen reports whether seq is a duplicate: accepted already, or too
// far below the top for the window to tell.
func (w *window) seen(seq int) bool {
	if seq > w.top {
		return false
	}
	d := uint64(w.top) - uint64(seq) // exact: 0 ≤ top-seq < 2⁶⁴
	return d >= windowBits || w.bits&(1<<d) != 0
}

// mark records seq as accepted, sliding the window up when seq is a
// new top. A seq the window no longer covers needs no bit: seen
// refuses it anyway.
func (w *window) mark(seq int) {
	if seq > w.top {
		w.bits <<= uint64(seq) - uint64(w.top) // a shift of 64 or more clears
		w.top = seq
	}
	if d := uint64(w.top) - uint64(seq); d < windowBits {
		w.bits |= 1 << d
	}
}

// idxSize is the entries of a shard's index: twice the pairs a shard
// holds, and a power of two, so a probe masks instead of dividing.
const idxSize = 2 * dedupPairs / ingestShards

// windowTable is one shard's windows, at most dedupPairs/ingestShards
// of them, kept in least-recently-seen order by a doubly linked list
// threaded through slots (indices, -1 for none; head is the newest).
// Its owner's lock guards it.
//
// idx finds a pair's slot: open addressing with linear probing, each
// entry a slot number plus one (0 is empty), starting at the pair's
// cached hash. An eviction deletes by backward shift (Knuth's
// Algorithm R), so the index never holds a tombstone and its size is
// fixed whatever the table has evicted. Device stamps are not trusted,
// but the index is at most half full, so a probe, even over crafted
// collisions, passes at most 256 occupied entries before an empty one.
type windowTable struct {
	idx        [idxSize]int32
	slots      []windowSlot
	head, tail int32
}

type windowSlot struct {
	key        pairKey
	w          window
	hash       uint32
	prev, next int32
}

func newWindowTable() windowTable {
	return windowTable{head: -1, tail: -1}
}

// pairHash hashes a pair for the index from its device's and its
// epoch's hashDevice, keeping the high 32 bits. The shard is
// hashDevice(device)'s low bits, shared by every pair in a shard; the
// epoch and the other bits keep them from piling into one probe run.
func pairHash(k pairKey) uint32 {
	return uint32((hashDevice(k.device) ^ hashDevice(k.epoch)*0x9e3779b97f4a7c15) >> 32)
}

// len reports the pairs the table holds: its slots are never freed,
// only reused by an eviction.
func (t *windowTable) len() int { return len(t.slots) }

// find returns k's slot, or -1 when the table holds no window for it.
func (t *windowTable) find(k pairKey, h uint32) int32 {
	for p := h & (idxSize - 1); ; p = (p + 1) & (idxSize - 1) {
		e := t.idx[p]
		if e == 0 {
			return -1
		}
		if s := &t.slots[e-1]; s.hash == h && s.key == k {
			return e - 1
		}
	}
}

// index enters slot i under its hash at the first empty entry of its
// probe run.
func (t *windowTable) index(i int32) {
	p := t.slots[i].hash & (idxSize - 1)
	for t.idx[p] != 0 {
		p = (p + 1) & (idxSize - 1)
	}
	t.idx[p] = i + 1
}

// unindex removes slot i's entry and closes the gap: each later entry
// of the run whose home is not between the gap and itself moves back
// into the gap, which moves on to where that entry was.
func (t *windowTable) unindex(i int32) {
	gap := t.slots[i].hash & (idxSize - 1)
	for t.idx[gap] != i+1 {
		gap = (gap + 1) & (idxSize - 1)
	}
	for p := (gap + 1) & (idxSize - 1); t.idx[p] != 0; p = (p + 1) & (idxSize - 1) {
		home := t.slots[t.idx[p]-1].hash & (idxSize - 1)
		if (p-home)&(idxSize-1) >= (p-gap)&(idxSize-1) {
			t.idx[gap] = t.idx[p]
			gap = p
		}
	}
	t.idx[gap] = 0
}

// seen reports whether seq is a duplicate in k's window; a pair with no
// window has seen nothing. A pair it finds becomes the newest.
func (t *windowTable) seen(k pairKey, seq int) bool {
	i := t.find(k, pairHash(k))
	if i < 0 {
		return false
	}
	t.touch(i)
	return t.slots[i].w.seen(seq)
}

// mark records seq as accepted in k's window, making the pair the
// newest. A pair without a window gets one, evicting the least recently
// seen pair when the table is full; mark reports whether it did.
func (t *windowTable) mark(k pairKey, seq int) (evicted bool) {
	h := pairHash(k)
	if i := t.find(k, h); i >= 0 {
		t.touch(i)
		t.slots[i].w.mark(seq)
		return false
	}
	var i int32
	if len(t.slots) < dedupPairs/ingestShards {
		i = int32(len(t.slots))
		t.slots = append(t.slots, windowSlot{})
	} else {
		i = t.tail
		t.unlink(i)
		t.unindex(i)
		evicted = true
	}
	s := &t.slots[i]
	s.key, s.w, s.hash = k, window{top: seq, bits: 1}, h
	t.index(i)
	t.pushFront(i)
	return evicted
}

// touch makes slot i the newest.
func (t *windowTable) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

func (t *windowTable) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
}

func (t *windowTable) pushFront(i int32) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}
