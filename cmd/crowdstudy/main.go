// Command crowdstudy runs the paper's crowdsourcing analyses (§4.2):
// dataset statistics, Figures 6–11, Tables 5–6 and the two case
// studies. Two dataset sources share the pipeline:
//
//   - default: the statistical generator calibrated to the published
//     marginals (-scale/-seed),
//   - -spool DIR: a collectord's durable spool directory, every batch
//     it accepted, in arrival order. The collector keeps no records in
//     memory, so this is also how to analyse a running one: its spool
//     is read up to the last batch complete when the read began.
//
// Usage:
//
//	crowdstudy [-scale F] [-seed N] [-spool DIR] [-dump FILE] [-section all|stats|contrib|geo|apps|dns|isps|whatsapp|jio]
//
// -dump writes the dataset's records as JSON Lines, which
// measure.ReadJSONL loads.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/mopeye"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale (1.0 = the paper's 5.25M measurements)")
	seed := flag.Int64("seed", 2016, "generator seed")
	section := flag.String("section", "all", "which analysis to print")
	dump := flag.String("dump", "", "also write the raw records as JSON Lines to this file")
	spool := flag.String("spool", "", "analyse a collectord spool directory instead of generating")
	flag.Parse()

	study, err := buildStudy(*scale, *seed, *spool)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := measure.WriteJSONL(f, study.Dataset().Records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote raw records to %s\n", *dump)
	}
	switch *section {
	case "all":
		fmt.Println(study.ReportAll())
	case "stats":
		fmt.Println(study.Summary())
	case "contrib":
		fmt.Println(study.ReportContributions())
	case "geo":
		fmt.Println(study.ReportCountries())
	case "apps":
		fmt.Println(study.ReportAppRTT())
		fmt.Println(study.ReportApps())
	case "dns":
		fmt.Println(study.ReportDNS())
	case "isps":
		fmt.Println(study.ReportISPs())
	case "whatsapp":
		fmt.Println(study.ReportCaseWhatsapp())
	case "jio":
		fmt.Println(study.ReportCaseJio())
	default:
		fmt.Fprintf(os.Stderr, "unknown section %q\n", *section)
		os.Exit(2)
	}
}

// buildStudy assembles the dataset from whichever source was selected.
func buildStudy(scale float64, seed int64, spool string) (*mopeye.Study, error) {
	if spool == "" {
		return mopeye.NewStudy(scale, seed), nil
	}
	recs, err := crowd.ReadSpool(spool)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "replayed %d records from spool %s\n", len(recs), spool)
	return mopeye.NewStudyFrom(recs), nil
}
