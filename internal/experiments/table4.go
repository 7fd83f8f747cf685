package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/baselines/haystack"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/testbed"
)

// Table4Result reports the resource overhead of relaying a video
// stream: CPU, battery (extrapolated to the paper's 58-minute session),
// and memory, for MopEye and the Haystack-style baseline (Table 4).
type Table4Result struct {
	MopEye   resource.Usage
	Haystack resource.Usage
	// Extrapolated battery drain over the paper's session length.
	MopEyeBattery58m   float64
	HaystackBattery58m float64
}

// videoMbps is the video bitrate: a 1080p stream runs ~5 Mbps.
const videoMbps = 5

// Table4Options configures the video run.
type Table4Options struct {
	// Duration is the measured slice of the session; resource rates are
	// extrapolated to the paper's 58 minutes.
	Duration time.Duration
	Seed     int64
}

// DefaultTable4Options uses a 5 Mbps stream observed for 3 seconds.
func DefaultTable4Options() Table4Options {
	return Table4Options{Duration: 3 * time.Second, Seed: 9}
}

var videoAddr = netip.MustParseAddrPort("142.250.4.91:443")

// RunTable4 plays the video through each relay and reports metered
// resource usage.
func RunTable4(o Table4Options) (*Table4Result, error) {
	run := func(cfg engine.Config, baseMB float64, seed int64) (resource.Usage, error) {
		link := netsim.LinkParams{
			Delay: 15 * time.Millisecond,
			Down:  netsim.Mbps(videoMbps),
			Up:    netsim.Mbps(videoMbps),
		}
		bed, err := testbed.New(testbed.Options{
			Engine: &cfg,
			Link:   link,
			Servers: []netsim.ServerSpec{{
				Domain: "video.example", Addr: videoAddr,
				Link: link, Handler: netsim.SourceHandler(1 << 40),
			}},
			MeterBaseMB: baseMB,
			Seed:        seed,
		})
		if err != nil {
			return resource.Usage{}, err
		}
		defer bed.Close()
		bed.InstallApp(uidVideo, "com.google.android.youtube")
		conn, err := bed.Phone.Connect(uidVideo, videoAddr, 10*time.Second)
		if err != nil {
			return resource.Usage{}, fmt.Errorf("video dial: %w", err)
		}
		_ = drain(conn, o.Duration)
		conn.Close()
		return bed.Meter.Report(o.Duration), nil
	}

	mop, err := run(engine.Default(), 12, o.Seed)
	if err != nil {
		return nil, err
	}
	hay, err := run(haystack.Config(), haystack.BaseMemoryMB, o.Seed+10)
	if err != nil {
		return nil, err
	}
	const session = 58 * time.Minute
	return &Table4Result{
		MopEye:             mop,
		Haystack:           hay,
		MopEyeBattery58m:   mop.CPUPercent / 100 * session.Hours() * 20,
		HaystackBattery58m: hay.CPUPercent / 100 * session.Hours() * 20,
	}, nil
}

// String renders the result in the layout of Table 4.
func (r *Table4Result) String() string {
	header := []string{"Resource", "MopEye", "Haystack"}
	rows := [][]string{
		{"CPU", fmt.Sprintf("%.2f%%", r.MopEye.CPUPercent), fmt.Sprintf("%.2f%%", r.Haystack.CPUPercent)},
		{"Battery (58min)", fmt.Sprintf("%.1f%%", r.MopEyeBattery58m), fmt.Sprintf("%.1f%%", r.HaystackBattery58m)},
		{"Memory", fmt.Sprintf("%.0fMB", r.MopEye.MemoryMB), fmt.Sprintf("%.0fMB", r.Haystack.MemoryMB)},
	}
	return renderTable(header, rows)
}
