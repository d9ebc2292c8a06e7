// Package bugsite generates and serves the study's three bug-report sources
// in their native formats: a GNATS problem-report tracker (bugs.apache.org),
// a debbugs tracker with a CVS log (bugs.gnome.org + cvs.gnome.org), and a
// mailing-list mbox archive (the geocrawler mysql list).
//
// Each site embeds the corpus's canonical faults among realistic clutter —
// duplicate reports of the same faults and non-qualifying noise (doc bugs,
// build problems, feature requests, beta-release reports, list chatter) — so
// the mining pipeline has real narrowing work to do, mirroring the paper's
// 5220→50, ~500→45, and 44k-messages→44 reductions.
//
// Generation is deterministic in Config.Seed: the same configuration always
// produces byte-identical sites.
package bugsite

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"

	"faultstudy/internal/corpus"
	"faultstudy/internal/scrape"
)

// Config controls site generation.
type Config struct {
	// Seed drives all randomness; sites with equal seeds are identical.
	Seed int64
	// DuplicateRate is the expected number of duplicate reports per
	// canonical fault (0 means 1.0).
	DuplicateRate float64
	// NoiseReports is the number of non-qualifying reports to mix in
	// (0 means the per-site default; negative means none).
	NoiseReports int
}

func (c Config) withDefaults(defaultNoise int) Config {
	if c.DuplicateRate == 0 {
		c.DuplicateRate = 1.0
	}
	if c.NoiseReports == 0 {
		c.NoiseReports = defaultNoise
	}
	if c.NoiseReports < 0 {
		c.NoiseReports = 0
	}
	return c
}

// dupText rewrites a fault's report text the way duplicate filers do: a new
// reporter voice around a quoted core, with an extra environment remark.
// The quoted core keeps the text similarity far above the dedup threshold.
func dupText(rng *rand.Rand, description string) string {
	openers := []string{
		"I believe this is the same problem discussed before, pasting my notes:",
		"Seeing this too. Original description matches exactly:",
		"Filing again since I cannot find a fix. Details:",
		"Same thing here after upgrading. To summarize:",
	}
	closers := []string{
		"In our case this is on a stock install.",
		"We can supply core files on request.",
		"Let me know if more information is needed.",
		"This blocks our deployment.",
	}
	return openers[rng.Intn(len(openers))] + "\n" + description + "\n" + closers[rng.Intn(len(closers))]
}

// dupCount draws the number of duplicates for one fault: rate 1.0 yields
// 0..2 with mean about 1.
func dupCount(rng *rand.Rand, rate float64) int {
	n := 0
	for f := rate; f > 0; f -= 1 {
		p := f
		if p > 1 {
			p = 1
		}
		// Two draws approximate the target mean while keeping the count
		// small and deterministic.
		if rng.Float64() < p {
			n++
		}
		if rng.Float64() < p/2 {
			n++
		}
	}
	return n
}

// htmlPage wraps body in a minimal page of the era.
func htmlPage(title, body string) string {
	return "<html><head><title>" + scrape.EncodeEntities(title) + "</title></head>\n<body>\n" +
		body + "\n</body></html>\n"
}

// preBlock escapes text into a <pre> block.
func preBlock(text string) string {
	return "<pre>\n" + scrape.EncodeEntities(text) + "\n</pre>"
}

// serveIndexed is a tiny router: exact path -> page content.
type serveIndexed map[string]string

func (s serveIndexed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	page, ok := s[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	if strings.HasSuffix(r.URL.Path, ".mbox") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
	}
	fmt.Fprint(w, page)
}

// faultsSorted returns the app's corpus faults ordered by filing date then ID
// so generated artifact numbering is stable and chronological.
func faultsSorted(faults []*corpus.Fault) []*corpus.Fault {
	out := make([]*corpus.Fault, len(faults))
	copy(out, faults)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Filed.Equal(out[j].Filed) {
			return out[i].Filed.Before(out[j].Filed)
		}
		return out[i].ID < out[j].ID
	})
	return out
}
