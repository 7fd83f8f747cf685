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
