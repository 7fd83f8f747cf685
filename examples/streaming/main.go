// Command streaming demonstrates the push half of the MopEye API: a
// live Subscribe stream printing measurements as the engine records
// them, and a crowdsourcing Collector attached as an engine-lifetime
// sink — batching uploads the way the deployed app does, here into an
// in-process TransportFunc standing in for the collector server, whose
// dataset feeds straight into the §4.2 analysis pipeline. Measure
// once, analyze with the same code that processes the paper's
// 5.25M-record study.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

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

	phone.InstallApp(10001, "com.example.messenger")
	phone.InstallApp(10002, "com.example.browser")

	// The Collector batches the phone's measurements (here every 5
	// records), stamps them with the device, and ships each batch
	// through its Transport; this one stands in for the collector
	// server by keeping what arrives. Attach ties the collector to the
	// engine's lifetime — Close performs the final upload.
	var uploaded []mopeye.Measurement // appended on the sink drain, read after Close
	collector := mopeye.NewCollector(mopeye.CollectorOptions{
		BatchSize: 5,
		Device:    "device-demo",
		Transport: mopeye.TransportFunc(func(_ context.Context, b mopeye.Batch) error {
			uploaded = append(uploaded, b.Records...)
			return nil
		}),
	})
	if _, err := phone.Attach(collector); err != nil {
		log.Fatal(err)
	}

	// A live subscription: every measurement, as it happens, until the
	// phone closes. Subscribe registers before returning, so nothing
	// the workload below produces is missed; cancel the context to
	// detach early instead.
	stream := phone.Subscribe(context.Background(), mopeye.Filter{})
	var tail sync.WaitGroup
	tail.Add(1)
	go func() {
		defer tail.Done()
		for m := range stream {
			fmt.Printf("live: %-4s %-24s -> %-21s %6.1f ms\n",
				m.Kind, m.App, m.Dst, m.RTT.Seconds()*1000)
		}
		fmt.Println("live: stream closed")
	}()

	// App traffic; measurements fall out opportunistically.
	for i := 0; i < 4; i++ {
		conn, err := phone.Connect(10001, "api.example.com:443")
		if err != nil {
			log.Fatal(err)
		}
		conn.Close()
	}
	for i := 0; i < 3; i++ {
		conn, err := phone.Connect(10002, "cdn.example.com:443")
		if err != nil {
			log.Fatal(err)
		}
		conn.Close()
	}

	// Close flushes the collector's final batch and ends the stream
	// after its last measurement — no sleep-and-hope draining.
	phone.Close()
	tail.Wait()

	fmt.Printf("\ncollector: %d uploads, %d records (dropped in transit: %d)\n",
		collector.Uploads(), len(uploaded), phone.StreamDrops())
	fmt.Println("per-app medians (ms):")
	for app, med := range phone.AppMedians(1) {
		fmt.Printf("  %-24s %6.1f\n", app, med)
	}

	// The uploaded dataset flows into the §4.2 analysis unchanged.
	study := mopeye.NewStudyFrom(uploaded)
	fmt.Printf("\n%s\n", study.Summary())
}
