package scrape

import (
	"fmt"
	"strings"
)

// Gap is one URL a crawl could not fetch: the per-URL residue of graceful
// degradation. A crawl that hits unrecoverable faults emits a partial
// corpus plus its gaps, instead of aborting — the miner's version of the
// supervision layer's degraded mode.
type Gap struct {
	// URL is the page that could not be fetched.
	URL string
	// Reason is the final error text.
	Reason string
}

// GapsOf extracts the gap entries from a crawl's pages, in crawl order.
func GapsOf(pages []*Page) []Gap {
	var out []Gap
	for _, p := range pages {
		if p.Err != nil {
			out = append(out, Gap{URL: p.URL, Reason: p.Err.Error()})
		}
	}
	return out
}

// Coverage summarizes a crawl: pages attempted, fetched cleanly (2xx),
// non-2xx responses, and gaps.
type Coverage struct {
	// Attempted is the number of pages the crawl tried.
	Attempted int
	// Fetched counts 2xx pages.
	Fetched int
	// NonOK counts non-2xx responses (recorded, not followed).
	NonOK int
	// Gaps counts pages lost to fetch failures.
	Gaps int
}

// CoverageOf tallies a crawl's coverage.
func CoverageOf(pages []*Page) Coverage {
	cov := Coverage{Attempted: len(pages)}
	for _, p := range pages {
		switch {
		case p.Err != nil:
			cov.Gaps++
		case p.Status >= 200 && p.Status < 300:
			cov.Fetched++
		default:
			cov.NonOK++
		}
	}
	return cov
}

// RenderGapList renders the per-gap lines of a gap set — the gap report
// bugminer prints from a Miner's accumulated gaps.
func RenderGapList(gaps []Gap) string {
	var b strings.Builder
	for _, g := range gaps {
		fmt.Fprintf(&b, "  %-40s %s\n", g.URL, g.Reason)
	}
	return b.String()
}
