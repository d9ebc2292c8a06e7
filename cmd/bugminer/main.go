// Command bugminer mines a single bug source and prints the classified
// unique faults. Point it at any GNATS-style tracker, debbugs-style tracker,
// or mbox archive laid out like the study's sources — or pass -simulate to
// mine a generated one.
//
// Usage:
//
//	bugminer -source apache -url http://tracker.example   # mine a live site
//	bugminer -source mysql -simulate                      # self-serve and mine
//	bugminer -source apache -simulate -chaos 7            # ... under injected faults
//	bugminer -simulate -chaos 7 -resilience naive         # ... with the bare client
//
// -chaos activates the chaoshttp fault catalogue (seed-deterministic EDT and
// EDN faults) between the miner and the source, as a transport wrapper
// beneath the resilient client in both modes. -resilience selects the client
// recovery policy the crawl runs under; the crawler itself never retries.
// Pages lost after the client exhausts recovery become gaps: the mine
// completes on the partial corpus and prints the gap report instead of dying
// mid-crawl.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"faultstudy"
	"faultstudy/internal/chaoshttp"
	"faultstudy/internal/core"
	"faultstudy/internal/resilient"
	"faultstudy/internal/scrape"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bugminer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		source     = flag.String("source", "apache", "source kind: apache | gnome | mysql")
		url        = flag.String("url", "", "base URL of the source")
		simulate   = flag.Bool("simulate", false, "serve a simulated source and mine it")
		seed       = flag.Int64("seed", 1999, "simulated-site seed (with -simulate)")
		chaosSeed  = flag.Int64("chaos", 0, "inject the chaos fault catalogue with this seed (0 = off)")
		resilience = flag.String("resilience", "full", "client recovery policy: naive | retry | full")
	)
	flag.Parse()

	app, err := parseSource(*source)
	if err != nil {
		return err
	}
	policy, err := resilient.PolicyByName(*resilience)
	if err != nil {
		return err
	}

	base := *url
	if *simulate {
		var handler http.Handler
		switch app {
		case faultstudy.AppApache:
			handler = faultstudy.NewApacheTrackerSite(faultstudy.SiteConfig{Seed: *seed})
		case faultstudy.AppGnome:
			handler = faultstudy.NewGnomeTrackerSite(faultstudy.SiteConfig{Seed: *seed})
		default:
			handler = faultstudy.NewMySQLArchiveSite(faultstudy.SiteConfig{Seed: *seed})
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: handler}
		defer srv.Close()
		go func() { _ = srv.Serve(ln) }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("serving simulated %s source at %s\n", app, base)
	}
	if base == "" {
		return fmt.Errorf("need -url or -simulate")
	}

	// The resilient client fronts every fetch, and chaos wraps the transport
	// beneath it. Both share one clock, so a latency fault sleeps no longer
	// than the client's per-try deadline.
	clock := resilient.NewRealClock()
	transport := http.RoundTripper(http.DefaultTransport)
	var injector *chaoshttp.Injector
	if *chaosSeed != 0 {
		injector = chaoshttp.NewInjector(chaoshttp.Config{Seed: *chaosSeed, Faults: chaoshttp.Catalog()}, transport, clock)
		transport = injector
	}
	client := resilient.New(policy,
		resilient.WithTransport(transport),
		resilient.WithClock(clock),
		resilient.WithRand(rand.New(rand.NewSource(*seed))))
	miner := &core.Miner{Options: []scrape.CrawlerOption{scrape.WithClient(client.HTTPClient())}}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var raw []*faultstudy.Report
	switch app {
	case faultstudy.AppApache:
		raw, err = miner.MineApache(ctx, base)
	case faultstudy.AppGnome:
		raw, err = miner.MineGnome(ctx, base)
	default:
		raw, err = miner.MineMySQL(ctx, base)
	}
	if err != nil {
		return err
	}

	res := faultstudy.ClassifyReports(raw, faultstudy.StudyOptions{})
	fmt.Printf("%d raw -> %d qualifying -> %d unique (%d duplicates)\n\n",
		res.Raw, res.Qualifying, res.Unique, res.Duplicates)
	for _, c := range res.Faults {
		fmt.Printf("[%s] %-10s %s\n", c.Result.Class.Short(), c.Result.Trigger, c.Report.Synopsis)
	}
	fmt.Println()
	fmt.Print(res.Table())
	if injector != nil {
		fmt.Printf("\nchaos: %d faults injected\n", len(injector.Injections()))
	}
	printRecovery(client.Stats(), miner.Gaps)
	return nil
}

// printRecovery reports the client's recovery spend and the gap report — the
// degraded-mode exit text that replaces dying mid-crawl.
func printRecovery(st resilient.Stats, gaps []scrape.Gap) {
	if st.Retries+st.Hedges+st.FastFails+st.BudgetDenied+st.Truncations > 0 {
		fmt.Printf("client recovery: %d retries, %d hedges, %d fast-fails, %d budget-denied, %d truncations\n",
			st.Retries, st.Hedges, st.FastFails, st.BudgetDenied, st.Truncations)
	}
	if len(gaps) == 0 {
		fmt.Println("no gaps: every reachable page was fetched")
		return
	}
	fmt.Printf("crawl degraded: %d pages lost after exhausting recovery\n", len(gaps))
	fmt.Print(scrape.RenderGapList(gaps))
}

func parseSource(s string) (faultstudy.Application, error) {
	switch s {
	case "apache":
		return faultstudy.AppApache, nil
	case "gnome":
		return faultstudy.AppGnome, nil
	case "mysql":
		return faultstudy.AppMySQL, nil
	default:
		return faultstudy.AppApache, fmt.Errorf("unknown source %q (want apache, gnome, or mysql)", s)
	}
}
