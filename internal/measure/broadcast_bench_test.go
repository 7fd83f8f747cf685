package measure

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkAddWithDrainingSubscribers prices Add on the path a watched
// phone runs: two producers call Add while subs readers drain the
// stream through Next at the same time, as the metrics feed, a
// Collector, the dash and -follow do. Every other record is a DNS record;
// with more than one reader, the last keeps only TCP records, so it
// passes a rejected row for every record it delivers. Each reader has
// the default lag bound, as the phone's readers do.
//
// The flood cases add as fast as the producers can, so on a host with
// two CPUs the readers run only when a producer yields: their drops
// measure that share of the CPU as much as their own cost. The paced
// case sleeps 1 ms after every 100 Adds per producer, at most 200,000
// records a second in all, still far above a phone's rate of
// connections.
//
// ns/op is the producers' wall time per Add. drops/op is the records
// the readers lost to lag, summed over readers, per Add. drain-ns/op is
// the wall time per Add from the first Add until every reader has read
// the end of its stream, so it also holds the readers' own work.
func BenchmarkAddWithDrainingSubscribers(b *testing.B) {
	for _, c := range []struct {
		subs  int
		paced bool
	}{{1, false}, {3, false}, {3, true}} {
		name := fmt.Sprintf("subs=%d", c.subs)
		if c.paced {
			name += "/paced"
		}
		b.Run(name, func(b *testing.B) {
			benchDrainingSubscribers(b, c.subs, c.paced)
		})
	}
}

func benchDrainingSubscribers(b *testing.B, subs int, paced bool) {
	tcp := brec(0)
	dns := brec(1)
	dns.Kind = KindDNS
	s := NewStore()
	tcpOnly := func(r Record) bool { return r.Kind == KindTCP }

	var readers sync.WaitGroup
	delivered := make([]int, subs)
	all := make([]*Subscription, subs)
	for i := range all {
		var keep func(Record) bool
		if subs > 1 && i == subs-1 {
			keep = tcpOnly
		}
		sub := s.Subscribe(0, keep)
		all[i] = sub
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if _, ok := sub.Next(nil); !ok {
					return
				}
				delivered[i]++
			}
		}()
	}

	const producers = 2
	var adders sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for p := 0; p < producers; p++ {
		n := b.N / producers
		if p == 0 {
			n += b.N % producers
		}
		adders.Add(1)
		go func() {
			defer adders.Done()
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					s.Add(tcp)
				} else {
					s.Add(dns)
				}
				if paced && i%100 == 99 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	adders.Wait()
	b.StopTimer()
	s.CloseSubscribers()
	readers.Wait()
	drain := time.Since(start)

	// A reader's drops are the records it keeps less those it was
	// delivered; summed over readers they are the store's drop count.
	kept := s.Len() - len(s.Kind(KindDNS))
	drops := 0
	for i, sub := range all {
		want := s.Len()
		if sub.keep != nil {
			want = kept
		}
		if delivered[i] > want {
			b.Fatalf("reader %d: delivered %d of the %d records it keeps", i, delivered[i], want)
		}
		drops += want - delivered[i]
	}
	if got := s.DroppedRecords(); got != uint64(drops) {
		b.Fatalf("store dropped %d, readers lost %d", got, drops)
	}
	b.ReportMetric(float64(drops)/float64(b.N), "drops/op")
	b.ReportMetric(float64(drain.Nanoseconds())/float64(b.N), "drain-ns/op")
}
