package flowtable

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/packet"
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{
		Proto: packet.ProtoTCP,
		Src:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), uint16(1024+i)),
		Dst:   netip.AddrPortFrom(netip.AddrFrom4([4]byte{93, 184, 216, 34}), 443),
	}
}

func TestNewRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {-5, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(New[int](tc.in).shards); got != tc.want {
			t.Errorf("len(New(%d).shards) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestPutGetDelete(t *testing.T) {
	tb := New[string](8)
	k := key(1)
	if _, ok := tb.Get(k); ok {
		t.Fatal("empty table returned a value")
	}
	tb.Put(k, "a")
	if v, ok := tb.Get(k); !ok || v != "a" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !tb.Delete(k) {
		t.Fatal("Delete missed a present key")
	}
	if tb.Delete(k) {
		t.Fatal("Delete reported a removed key as present")
	}
}

func TestHashIsStableAndShardInRange(t *testing.T) {
	tb := New[int](16)
	for i := 0; i < 200; i++ {
		k := key(i)
		if Hash(k) != Hash(k) {
			t.Fatal("hash not stable")
		}
		s := tb.Shard(k)
		if s < 0 || s >= len(tb.shards) {
			t.Fatalf("shard %d out of range", s)
		}
		if s != tb.Shard(k) {
			t.Fatal("shard not stable")
		}
	}
}

// TestShardsSpreadFlows checks that the shard index — the hash's low
// bits — spreads three key shapes: the address and port counting
// together, the engine's common case of one IPv4 app address opening
// consecutive source ports to one server, and IPv6 keys that differ
// only in the low 64 bits of the source address.
func TestShardsSpreadFlows(t *testing.T) {
	app4 := netip.MustParseAddr("10.0.0.2")
	server4 := netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), 443)
	server6 := netip.AddrPortFrom(netip.MustParseAddr("2606:2800:220:1::248"), 443)
	for _, shape := range []struct {
		name string
		key  func(i int) packet.FlowKey
	}{
		{"address and port", key},
		{"one app, consecutive ports", func(i int) packet.FlowKey {
			return packet.FlowKey{Proto: packet.ProtoTCP, Src: netip.AddrPortFrom(app4, uint16(40000+i)), Dst: server4}
		}},
		{"IPv6, low 64 bits", func(i int) packet.FlowKey {
			a := [16]byte{0xfd, 0, 0, 0, 0, 0, 0, 1}
			binary.BigEndian.PutUint64(a[8:], uint64(i))
			return packet.FlowKey{Proto: packet.ProtoTCP, Src: netip.AddrPortFrom(netip.AddrFrom16(a), 40000), Dst: server6}
		}},
	} {
		tb := New[int](16)
		counts := make([]int, len(tb.shards))
		const n = 4096
		for i := 0; i < n; i++ {
			counts[tb.Shard(shape.key(i))]++
		}
		for s, c := range counts {
			// Perfectly even would be n/16 = 256; allow a wide band, we
			// only care that no shard is starved or hot.
			if c < n/64 || c > n/4 {
				t.Errorf("%s: shard %d holds %d of %d flows", shape.name, s, c, n)
			}
		}
	}
}

var hashSink uint64

func BenchmarkHash(b *testing.B) {
	keys := []packet.FlowKey{key(7), {
		Proto: packet.ProtoTCP,
		Src:   netip.MustParseAddrPort("[fd00::1:2]:40000"),
		Dst:   netip.MustParseAddrPort("[2606:2800:220:1::248]:443"),
	}}
	for _, k := range keys {
		b.Run(fmt.Sprintf("v4=%v", k.Src.Addr().Is4()), func(b *testing.B) {
			for b.Loop() {
				hashSink = Hash(k)
			}
		})
	}
}

func TestLenForEachDrain(t *testing.T) {
	tb := New[int](4)
	const n = 100
	for i := 0; i < n; i++ {
		tb.Put(key(i), i)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d, want %d", tb.Len(), n)
	}
	seen := map[int]bool{}
	tb.ForEach(func(_ packet.FlowKey, v int) { seen[v] = true })
	if len(seen) != n {
		t.Fatalf("ForEach visited %d, want %d", len(seen), n)
	}
	vals := tb.Drain()
	if len(vals) != n || tb.Len() != 0 {
		t.Fatalf("Drain returned %d, Len now %d", len(vals), tb.Len())
	}
}

func TestForEachMayMutate(t *testing.T) {
	tb := New[int](4)
	for i := 0; i < 20; i++ {
		tb.Put(key(i), i)
	}
	// fn runs outside the shard lock, so deleting from inside must not
	// deadlock.
	tb.ForEach(func(k packet.FlowKey, _ int) { tb.Delete(k) })
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after self-delete", tb.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	tb := New[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(g*500 + i)
				tb.Put(k, i)
				tb.Get(k)
				if i%3 == 0 {
					tb.Delete(k)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			tb.Len()
			tb.ForEach(func(packet.FlowKey, int) {})
		}
		close(done)
	}()
	wg.Wait()
	<-done
}

func BenchmarkShardedVsSingleLock(b *testing.B) {
	for _, shards := range []int{1, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tb := New[int](shards)
			keys := make([]packet.FlowKey, 256)
			for i := range keys {
				keys[i] = key(i)
				tb.Put(keys[i], i)
			}
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tb.Get(keys[i%len(keys)])
					i++
				}
			})
		})
	}
}

// TestDeleteFuncIdleExpiryBoundaries is the table-driven boundary suite
// for DeleteFunc as the UDP relay's idle sweeper uses it: values are
// lastUsed timestamps, the predicate is the sweep's strict
// `lastUsed < now - idle` comparison. The boundary that matters: a
// session whose last datagram landed exactly one idle period ago is NOT
// expired (strictly-less keeps the newest eligible session alive, so an
// app ticking at exactly the idle period never loses its NAT mapping),
// and a zero idle window expires everything except entries touched at
// the sweep instant.
func TestDeleteFuncIdleExpiryBoundaries(t *testing.T) {
	const now = int64(1_000_000)
	sweep := func(tb *Table[int64], idle int64) []int64 {
		cutoff := now - idle
		return tb.DeleteFunc(func(_ packet.FlowKey, lastUsed int64) bool {
			return lastUsed < cutoff
		})
	}
	cases := []struct {
		name     string
		idle     int64
		lastUsed []int64 // per-entry timestamps
		expire   []bool  // expected expiry per entry
	}{
		{
			name:     "exactly at the idle boundary survives",
			idle:     100,
			lastUsed: []int64{now - 100},
			expire:   []bool{false},
		},
		{
			name:     "one tick past the boundary expires",
			idle:     100,
			lastUsed: []int64{now - 101},
			expire:   []bool{true},
		},
		{
			name:     "zero idle expires everything stale, keeps the current instant",
			idle:     0,
			lastUsed: []int64{now, now - 1, now - 100, 0},
			expire:   []bool{false, true, true, true},
		},
		{
			name:     "mixed population straddling the cutoff",
			idle:     50,
			lastUsed: []int64{now, now - 49, now - 50, now - 51, now - 500},
			expire:   []bool{false, false, false, true, true},
		},
		{
			name:     "future timestamp never expires",
			idle:     50,
			lastUsed: []int64{now + 1000},
			expire:   []bool{false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := New[int64](8)
			wantGone := map[int64]bool{}
			wantRemoved := 0
			for i, lu := range tc.lastUsed {
				tb.Put(key(i), lu)
				if tc.expire[i] {
					wantGone[lu] = true
					wantRemoved++
				}
			}
			removed := sweep(tb, tc.idle)
			if len(removed) != wantRemoved {
				t.Fatalf("removed %d entries, want %d (removed: %v)", len(removed), wantRemoved, removed)
			}
			for _, lu := range removed {
				if !wantGone[lu] {
					t.Errorf("entry lastUsed=%d expired; boundary is strict `<`", lu)
				}
			}
			if got, want := tb.Len(), len(tc.lastUsed)-wantRemoved; got != want {
				t.Errorf("Len after sweep = %d, want %d", got, want)
			}
			// Survivors are still retrievable, expired ones are gone.
			for i, lu := range tc.lastUsed {
				_, ok := tb.Get(key(i))
				if ok == tc.expire[i] {
					t.Errorf("entry %d (lastUsed=%d): present=%v, want %v", i, lu, ok, !tc.expire[i])
				}
			}
		})
	}
}

// TestDeleteFuncDeleteDuringIteration covers the delete-while-ranging
// corner: the predicate removes entries from the very shard map being
// iterated (DeleteFunc deletes inside its range loop). Removing every
// entry, alternating entries, and re-sweeping an already-swept table
// must all be exact — no skipped entries, no double deletes, Len
// consistent throughout.
func TestDeleteFuncDeleteDuringIteration(t *testing.T) {
	tb := New[int](4) // few shards → many deletions per ranged map
	const n = 256
	for i := 0; i < n; i++ {
		tb.Put(key(i), i)
	}
	odd := tb.DeleteFunc(func(_ packet.FlowKey, v int) bool { return v%2 == 1 })
	if len(odd) != n/2 {
		t.Fatalf("first sweep removed %d, want %d", len(odd), n/2)
	}
	// Second sweep over the survivors removes everything that's left.
	rest := tb.DeleteFunc(func(packet.FlowKey, int) bool { return true })
	if len(rest) != n/2 {
		t.Fatalf("second sweep removed %d, want %d", len(rest), n/2)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after full sweep", tb.Len())
	}
	// Sweeping an empty table is a no-op, not a panic or a negative Len.
	if got := tb.DeleteFunc(func(packet.FlowKey, int) bool { return true }); len(got) != 0 {
		t.Fatalf("sweep of empty table removed %d", len(got))
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after empty sweep", tb.Len())
	}
	seen := map[int]bool{}
	for _, v := range append(odd, rest...) {
		if seen[v] {
			t.Fatalf("value %d removed twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("sweeps returned %d distinct values, want %d", len(seen), n)
	}
}

// TestDeleteFuncConcurrentWithPut races sweeps against writers: every
// entry must end up either surviving in the table or in exactly one
// sweep's removed set.
func TestDeleteFuncConcurrentWithPut(t *testing.T) {
	tb := New[int](8)
	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	removed := make([][]int, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tb.Put(key(g*perWriter+i), g*perWriter+i)
				if i%16 == 0 {
					vs := tb.DeleteFunc(func(_ packet.FlowKey, v int) bool { return v%7 == 0 })
					removed[g] = append(removed[g], vs...)
				}
			}
		}(g)
	}
	wg.Wait()
	seen := map[int]int{}
	for _, rs := range removed {
		for _, v := range rs {
			seen[v]++
			if seen[v] > 1 {
				t.Fatalf("value %d removed by two sweeps", v)
			}
		}
	}
	// Anything a sweep removed must be gone; anything still present
	// must not be in any removed set.
	for i := 0; i < writers*perWriter; i++ {
		_, present := tb.Get(key(i))
		if present && seen[i] > 0 {
			t.Fatalf("value %d both present and removed", i)
		}
		if i%7 == 0 && present {
			// Legal: put after the last sweep. Just ensure Len agrees.
			continue
		}
	}
}

func TestDeleteFunc(t *testing.T) {
	tb := New[int](8)
	for i := 0; i < 100; i++ {
		tb.Put(key(i), i)
	}
	removed := tb.DeleteFunc(func(_ packet.FlowKey, v int) bool { return v%2 == 0 })
	if len(removed) != 50 {
		t.Fatalf("removed %d, want 50", len(removed))
	}
	for _, v := range removed {
		if v%2 != 0 {
			t.Fatalf("removed odd value %d", v)
		}
	}
	if tb.Len() != 50 {
		t.Fatalf("Len = %d, want 50", tb.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := tb.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
	if got := tb.DeleteFunc(func(packet.FlowKey, int) bool { return false }); len(got) != 0 {
		t.Fatalf("no-op DeleteFunc removed %d", len(got))
	}
}

// CompareAndDelete removes an entry only while it holds the given
// value: a stale owner cannot delete the value that replaced it.
func TestCompareAndDelete(t *testing.T) {
	type v struct{ n int }
	tb := New[*v](4)
	old, fresh := &v{1}, &v{2}
	tb.Put(key(1), old)
	tb.Put(key(1), fresh)
	if CompareAndDelete(tb, key(1), old) {
		t.Fatal("stale value deleted its successor")
	}
	if got, ok := tb.Get(key(1)); !ok || got != fresh || tb.Len() != 1 {
		t.Fatalf("after stale delete: %v %v len %d", got, ok, tb.Len())
	}
	if !CompareAndDelete(tb, key(1), fresh) {
		t.Fatal("current value not deleted")
	}
	if _, ok := tb.Get(key(1)); ok || tb.Len() != 0 {
		t.Fatalf("entry survived: len %d", tb.Len())
	}
	if CompareAndDelete(tb, key(1), fresh) {
		t.Fatal("deleted an absent key")
	}
}

// Range visits every entry once and stops when fn returns false.
func TestRangeVisitsAndStops(t *testing.T) {
	tb := New[int](8)
	for i := 0; i < 100; i++ {
		tb.Put(key(i), i)
	}
	seen := map[int]bool{}
	tb.Range(func(_ packet.FlowKey, v int) bool {
		seen[v] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("visited %d of 100", len(seen))
	}
	calls := 0
	tb.Range(func(packet.FlowKey, int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("Range called fn %d times after it returned false on the 3rd", calls)
	}
}
