package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/procnet"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Fig5Result holds the packet-to-app mapping overhead distributions
// before (eager, Figure 5a) and after (lazy, Figure 5b) the §3.3
// optimisation, plus the mitigation statistics the paper reports
// (155/481 threads parsing, 67.8% avoided).
type Fig5Result struct {
	Eager engine.MappingStats
	Lazy  engine.MappingStats
	// EagerCDF/LazyCDF are the per-resolution overheads in ms.
	EagerCDF *stats.CDF
	LazyCDF  *stats.CDF
}

// Fig5Options sizes the browsing workload.
type Fig5Options struct {
	Pages        int
	ConnsPerPage int
	Seed         int64
}

// DefaultFig5Options approximates the paper's web-browsing run scale.
func DefaultFig5Options() Fig5Options {
	return Fig5Options{Pages: 20, ConnsPerPage: 8, Seed: 5}
}

// RunFig5 runs the browsing workload under eager and lazy mapping with
// the Android parse-cost model.
func RunFig5(o Fig5Options) (*Fig5Result, error) {
	run := func(mode engine.MappingMode, seed int64) (engine.MappingStats, error) {
		cfg := engine.Default()
		cfg.Mapping = mode
		cfg.Seed = seed
		bed, err := testbed.New(testbed.Options{
			Engine:    &cfg,
			Link:      netsim.LinkParams{Delay: 15 * time.Millisecond},
			Servers:   []netsim.ServerSpec{testbed.ChattyServer("pages.example", "203.0.113.20:80", 30*time.Millisecond)},
			ParseCost: procnet.AndroidParseCost(),
			Seed:      seed,
		})
		if err != nil {
			return engine.MappingStats{}, err
		}
		bed.InstallApp(uidBrowser, "com.android.chrome")
		server := netip.MustParseAddrPort("203.0.113.20:80")
		browse(bed, o.Pages, o.ConnsPerPage, "pages.example", server)
		// Stop joins the socket-connect threads that run the lazy
		// resolutions, so the stats are complete once the bed is closed.
		bed.Close()
		return bed.Eng.Stats().Mapping, nil
	}

	eager, err := run(engine.MapEager, o.Seed)
	if err != nil {
		return nil, err
	}
	lazy, err := run(engine.MapLazy, o.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{
		Eager:    eager,
		Lazy:     lazy,
		EagerCDF: stats.NewCDF(stats.DurationsToMillis(eager.Overheads)),
		LazyCDF:  stats.NewCDF(stats.DurationsToMillis(lazy.Overheads)),
	}, nil
}

// String renders the mapping-overhead CDFs and the §3.3 statistics.
func (r *Fig5Result) String() string {
	out := "Figure 5: packet-to-app mapping overhead per SYN (CDF)\n"
	out += "  x(ms)   (a) before (eager)   (b) after (lazy)\n"
	for _, x := range []float64{0.1, 1, 2, 5, 10, 15, 20, 30} {
		out += fmt.Sprintf("  %5.1f   %18.2f   %16.2f\n", x, r.EagerCDF.At(x), r.LazyCDF.At(x))
	}
	out += fmt.Sprintf("lazy mapping: %d resolutions, %d parsed, %d avoided (mitigation %.1f%%)\n",
		r.Lazy.Resolutions, r.Lazy.Parses, r.Lazy.Avoided, r.Lazy.MitigationRate()*100)
	return out
}
