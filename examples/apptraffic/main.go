// Command apptraffic demonstrates the beyond-RTT metric extension the
// paper's conclusion proposes: per-app traffic volumes, collected with
// the same zero-overhead opportunism as the RTT measurements — the
// engine is already relaying every byte, so attribution is free.
package main

import (
	"fmt"
	"log"

	"repro/mopeye"
)

func main() {
	phone, err := mopeye.New(mopeye.Options{
		Servers: []mopeye.Server{
			{Domain: "stream.example.com", RTTMillis: 30, Behaviour: mopeye.Chatty},
			{Domain: "chat.example.com", RTTMillis: 80, Behaviour: mopeye.Chatty},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer phone.Close()
	phone.InstallApp(10001, "com.example.video")
	phone.InstallApp(10002, "com.example.chat")

	// The video app pulls a few hundred KiB; the chat app exchanges a
	// few small messages.
	video, err := phone.Connect(10001, "stream.example.com:443")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := video.Write([]byte{0, 1, 0, 0}); err != nil { // request 64 KiB
			log.Fatal(err)
		}
		buf := make([]byte, 65536)
		if err := video.ReadFull(buf); err != nil {
			log.Fatal(err)
		}
	}
	video.Close()

	chat, err := phone.Connect(10002, "chat.example.com:443")
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := chat.Write([]byte{0, 0, 0, 64}); err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 64)
		if err := chat.ReadFull(buf); err != nil {
			log.Fatal(err)
		}
	}
	chat.Close()
	phone.Close() // the accessors below report on the closed phone

	fmt.Println("per-app traffic (opportunistic, zero probe overhead):")
	fmt.Printf("  %-22s %6s %12s %12s %6s\n", "app", "conns", "up", "down", "dns")
	for _, a := range phone.AppTraffic() {
		fmt.Printf("  %-22s %6d %10dB %10dB %6d\n",
			a.App, a.Connections, a.BytesUp, a.BytesDown, a.DNSQueries)
	}
	fmt.Println("\nper-app RTT medians (ms):")
	for app, med := range phone.AppMedians(1) {
		fmt.Printf("  %-22s %6.1f\n", app, med)
	}
}
