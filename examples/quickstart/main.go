// Command quickstart is the smallest end-to-end MopEye run: one app,
// two servers, a handful of connections — and the per-app RTT
// measurements MopEye collected opportunistically while relaying them.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/mopeye"
)

func main() {
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{
			{Domain: "api.example.com", RTTMillis: 42},
			{Domain: "cdn.example.com", RTTMillis: 9},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer phone.Close()

	phone.InstallApp(10001, "com.example.messenger")
	phone.InstallApp(10002, "com.example.browser")

	// App traffic: MopEye measures each connect() opportunistically —
	// no probe packets are ever sent.
	for i := 0; i < 3; i++ {
		conn, err := phone.Connect(10001, "api.example.com:443")
		if err != nil {
			log.Fatal(err)
		}
		msg := []byte("ping over the relay")
		if _, err := conn.Write(msg); err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, len(msg))
		if err := conn.ReadFull(buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("messenger exchange %d ok (app saw connect in %v)\n", i+1, conn.ConnectLatency().Round(time.Millisecond))
		conn.Close()
	}
	for i := 0; i < 2; i++ {
		conn, err := phone.Connect(10002, "cdn.example.com:443")
		if err != nil {
			log.Fatal(err)
		}
		conn.Close()
	}

	// Closing stops the engine, which waits for the measurements still
	// in flight; the snapshot accessors keep working afterwards.
	phone.Close()

	fmt.Println("\nPer-app opportunistic measurements:")
	for _, m := range phone.TCPMeasurements() {
		fmt.Printf("  %-24s -> %-21s %6.1f ms\n", m.App, m.Dst, m.RTT.Seconds()*1000)
	}
	fmt.Println("\nDNS measurements:")
	for _, m := range phone.DNSMeasurements() {
		fmt.Printf("  %-24s -> %-21s %6.1f ms\n", m.Domain, m.Dst, m.RTT.Seconds()*1000)
	}
	fmt.Println("\nPer-app medians (ms):")
	for app, med := range phone.AppMedians(1) {
		fmt.Printf("  %-24s %6.1f\n", app, med)
	}
}
