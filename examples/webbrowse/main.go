// Command webbrowse drives a browsing-style workload — pages of
// concurrent connections preceded by DNS lookups — through MopEye with
// the Android cost models enabled, then reports what §3.3's lazy
// packet-to-app mapping saved: how many proc-file parses the elected-
// parser scheme avoided, and the per-SYN mapping overhead that remains.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/mopeye"
)

func main() {
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{
			{Domain: "news.example.com", RTTMillis: 35, Behaviour: mopeye.Chatty},
			{Domain: "static.example.com", RTTMillis: 18, Behaviour: mopeye.Chatty},
		},
		RealisticCosts: true, // Android-like parse/protect/register costs
	})
	if err != nil {
		log.Fatal(err)
	}
	defer phone.Close()
	phone.InstallApp(10050, "com.android.chrome")

	const pages, perPage = 10, 6
	start := time.Now()
	for p := 0; p < pages; p++ {
		if _, err := phone.Resolve(10050, "news.example.com"); err != nil {
			log.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < perPage; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				host := "news.example.com:443"
				if c%2 == 1 {
					host = "static.example.com:443"
				}
				conn, err := phone.Connect(10050, host)
				if err != nil {
					return
				}
				defer conn.Close()
				// Fetch a 4 KiB object.
				if _, err := conn.Write([]byte{0, 0, 0x10, 0}); err != nil {
					return
				}
				buf := make([]byte, 4096)
				_ = conn.ReadFull(buf)
			}(c)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	phone.Close() // the accessors below report on the closed phone

	st := phone.EngineStats()
	fmt.Printf("browsed %d pages (%d connections) in %v\n", pages, pages*perPage, elapsed.Round(time.Millisecond))
	fmt.Printf("engine: %d SYNs, %d established, %d tunnel packets in, %d out\n",
		st.SYNs, st.Established, st.PacketsFromTun, st.PacketsToTun)
	fmt.Printf("\nlazy packet-to-app mapping (§3.3):\n")
	fmt.Printf("  resolutions: %d\n", st.Mapping.Resolutions)
	fmt.Printf("  proc parses performed: %d\n", st.Mapping.Parses)
	fmt.Printf("  parses avoided: %d (mitigation rate %.1f%%; paper reports 67.8%%)\n",
		st.Mapping.Avoided, st.Mapping.MitigationRate()*100)

	fmt.Printf("\nper-app medians:\n")
	for app, med := range phone.AppMedians(1) {
		fmt.Printf("  %-22s %6.1f ms\n", app, med)
	}
}
