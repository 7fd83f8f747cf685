// Command crowdstudy runs the paper's crowdsourcing analyses (§4.2):
// dataset statistics, Figures 6–11, Tables 5–6 and the two case
// studies. Three dataset sources share the pipeline:
//
//   - default: the statistical generator calibrated to the published
//     marginals (-scale/-seed),
//   - -serve URL: a live collectord — the records it has accepted so
//     far are fetched over HTTP (GET /v1/records),
//   - -spool DIR: a collectord's durable spool directory, read
//     offline with the same dedup the server applies.
//
// Usage:
//
//	crowdstudy [-scale F] [-seed N] [-serve URL | -spool DIR] [-token T] [-dump FILE] [-section all|stats|contrib|geo|apps|dns|isps|whatsapp|jio]
//
// -dump writes the dataset's records as JSON Lines, the bytes
// GET /v1/records serves and measure.ReadJSONL loads.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/crowd"
	"repro/internal/measure"
	"repro/mopeye"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale (1.0 = the paper's 5.25M measurements)")
	seed := flag.Int64("seed", 2016, "generator seed")
	section := flag.String("section", "all", "which analysis to print")
	dump := flag.String("dump", "", "also write the raw records as JSON Lines to this file")
	serve := flag.String("serve", "", "analyse a live collectord at this base URL instead of generating")
	spool := flag.String("spool", "", "analyse a collectord spool directory instead of generating")
	token := flag.String("token", "", "collectord bearer token (with -serve)")
	flag.Parse()

	study, err := buildStudy(*scale, *seed, *serve, *spool, *token)
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
func buildStudy(scale float64, seed int64, serve, spool, token string) (*mopeye.Study, error) {
	switch {
	case serve != "" && spool != "":
		return nil, fmt.Errorf("crowdstudy: -serve and -spool are mutually exclusive")
	case serve != "":
		recs, err := fetchRecords(serve, token)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "fetched %d records from %s\n", len(recs), serve)
		return mopeye.NewStudyFrom(recs), nil
	case spool != "":
		recs, err := crowd.ReadSpool(spool)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "replayed %d records from spool %s\n", len(recs), spool)
		return mopeye.NewStudyFrom(recs), nil
	default:
		return mopeye.NewStudy(scale, seed), nil
	}
}

// fetchRecords pulls the accepted dataset from a live collectord.
func fetchRecords(base, token string) ([]measure.Record, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/records", nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("crowdstudy: %s answered %s", base, resp.Status)
	}
	return measure.ReadJSONL(resp.Body)
}
