package corpusgen

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"faultstudy/internal/parallel"
)

// Site serves the generated population as a synthetic GNATS-style PR site:
// a root page linking chunked index pages, each linking individual PR pages.
// Each fault renders as one canonical PR plus zero to three duplicate PRs
// (drawn from the corpus's seed stream), so a 50k-fault population yields
// well over 100k crawlable PR pages.
//
// Pages are rendered lazily — a page body is a pure function of its URL and
// the corpus — so the site's memory footprint is the duplicate-count prefix
// sums alone, regardless of population size.
type Site struct {
	c       *Corpus
	perPage int
	// cum[i] is the number of PR pages owned by faults [0, i); cum[n] is the
	// total. PR number p belongs to the fault whose [cum[i], cum[i+1]) range
	// covers it, ordinal p-cum[i] (0 is canonical, >0 duplicates).
	cum []int
}

// sitePerPage is how many PR links one index page carries.
const sitePerPage = 500

// maxDupPages bounds the per-fault duplicate draw (0..3).
const maxDupPages = 4

// dupCount draws fault i's duplicate-page count from the site segment of
// the corpus seed stream (disjoint from the fault and episode streams).
func (c *Corpus) dupCount(i int) int {
	h := parallel.Derive(c.seed, uint64(c.spec.Faults+c.spec.Episodes)+uint64(i))
	return int(uint64(h) % maxDupPages)
}

// NewSite materializes the site's only state: the duplicate-count prefix
// sums over the population.
func NewSite(c *Corpus) *Site {
	n := c.spec.Faults
	cum := make([]int, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + 1 + c.dupCount(i)
	}
	return &Site{c: c, perPage: sitePerPage, cum: cum}
}

// PRPages is the number of PR pages (canonical plus duplicates).
func (s *Site) PRPages() int { return s.cum[len(s.cum)-1] }

// IndexPages is the number of chunked index pages.
func (s *Site) IndexPages() int { return (s.PRPages() + s.perPage - 1) / s.perPage }

// PageCount is every crawlable page: the root, the indexes, and the PRs.
func (s *Site) PageCount() int { return 1 + s.IndexPages() + s.PRPages() }

// ServeHTTP renders the page for one URL. Unknown paths 404.
func (s *Site) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/gen":
		s.serveRoot(w)
	case strings.HasPrefix(path, "/gen/index/"):
		k, err := strconv.Atoi(strings.TrimPrefix(path, "/gen/index/"))
		if err != nil || k < 0 || k >= s.IndexPages() {
			http.NotFound(w, r)
			return
		}
		s.serveIndex(w, k)
	case strings.HasPrefix(path, "/gen/pr/"):
		n, err := strconv.Atoi(strings.TrimPrefix(path, "/gen/pr/"))
		if err != nil || n < 0 || n >= s.PRPages() {
			http.NotFound(w, r)
			return
		}
		s.servePR(w, n)
	default:
		http.NotFound(w, r)
	}
}

// pageFrame bounds the bytes a root or index page spends outside its link
// list: heading, closing tags and the next-page link.
const pageFrame = 128

// serveRoot lists every index chunk.
func (s *Site) serveRoot(w http.ResponseWriter) {
	const lineFixed = len("<li><a href=\"/gen/index/\">PRs &ndash;</a></li>\n")
	pages, prs := s.IndexPages(), s.PRPages()
	var b strings.Builder
	b.Grow(pageFrame + pages*(lineFixed+digits(pages)+2*digits(prs)))
	var num [20]byte
	b.WriteString("<html><body><h1>Generated fault PR database</h1>\n<ul>\n")
	for k := 0; k < pages; k++ {
		b.WriteString(`<li><a href="/gen/index/`)
		b.Write(strconv.AppendInt(num[:0], int64(k), 10))
		b.WriteString(`">PRs `)
		b.Write(strconv.AppendInt(num[:0], int64(k*s.perPage), 10))
		b.WriteString("&ndash;")
		b.Write(strconv.AppendInt(num[:0], int64(min(prs, (k+1)*s.perPage)-1), 10))
		b.WriteString("</a></li>\n")
	}
	b.WriteString("</ul></body></html>\n")
	writePage(w, b.String())
}

// serveIndex lists one chunk of PR links, plus the next chunk for crawlers
// that land mid-index.
func (s *Site) serveIndex(w http.ResponseWriter, k int) {
	const lineFixed = len("<li><a href=\"/gen/pr/\">PR </a></li>\n")
	lo, hi := k*s.perPage, min(s.PRPages(), (k+1)*s.perPage)
	var b strings.Builder
	b.Grow(pageFrame + (hi-lo)*(lineFixed+2*digits(hi)))
	var num [20]byte
	b.WriteString("<html><body><h2>PR index ")
	b.Write(strconv.AppendInt(num[:0], int64(k), 10))
	b.WriteString("</h2>\n<ul>\n")
	for n := lo; n < hi; n++ {
		d := strconv.AppendInt(num[:0], int64(n), 10)
		b.WriteString(`<li><a href="/gen/pr/`)
		b.Write(d)
		b.WriteString(`">PR `)
		b.Write(d)
		b.WriteString("</a></li>\n")
	}
	b.WriteString("</ul>\n")
	if k+1 < s.IndexPages() {
		b.WriteString(`<a href="/gen/index/`)
		b.Write(strconv.AppendInt(num[:0], int64(k+1), 10))
		b.WriteString("\">next page</a>\n")
	}
	b.WriteString("</body></html>\n")
	writePage(w, b.String())
}

// digits is the number of decimal digits in n >= 0.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// servePR renders one PR page: the canonical GNATS-style report for ordinal
// 0, a duplicate report pointing at the canonical PR otherwise.
func (s *Site) servePR(w http.ResponseWriter, n int) {
	// The owning fault is the last i with cum[i] <= n.
	i := sort.SearchInts(s.cum, n+1) - 1
	ordinal := n - s.cum[i]
	f := s.c.FaultAt(i)
	var b strings.Builder
	b.WriteString("<html><body><pre>\n")
	if ordinal == 0 {
		fmt.Fprintf(&b, ">Number:         %d\n", n)
		fmt.Fprintf(&b, ">Category:       %s\n", f.AppName)
		fmt.Fprintf(&b, ">Synopsis:       %s\n", f.synopsis())
		fmt.Fprintf(&b, ">Severity:       %s\n", f.Severity)
		fmt.Fprintf(&b, ">Arrival-Date:   %s\n", filedDate(f.Index).Format("Mon Jan 2 15:04:05 2006"))
		fmt.Fprintf(&b, ">Description:\n%s\n", f.description())
		fmt.Fprintf(&b, ">How-To-Repeat:\n%s\n", f.howToRepeat())
	} else {
		canonical := s.cum[i]
		fmt.Fprintf(&b, ">Number:         %d\n", n)
		fmt.Fprintf(&b, ">Category:       %s\n", f.AppName)
		fmt.Fprintf(&b, ">Synopsis:       duplicate report: %s\n", f.synopsis())
		fmt.Fprintf(&b, ">Severity:       %s\n", f.Severity)
		fmt.Fprintf(&b, ">Description:\nSame failure as PR %d; closing as duplicate.\n", canonical)
	}
	b.WriteString("</pre>\n")
	if ordinal > 0 {
		fmt.Fprintf(&b, "<a href=\"/gen/pr/%d\">canonical PR</a>\n", s.cum[i])
	}
	b.WriteString("</body></html>\n")
	writePage(w, b.String())
}

// writePage writes one HTML page. The declared length lets a client size
// its read buffer once instead of decoding a chunked body.
func writePage(w http.ResponseWriter, body string) {
	h := w.Header()
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = io.WriteString(w, body)
}
