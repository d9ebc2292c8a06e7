package scrape

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSleeper satisfies Sleeper and records every pause instead of
// sleeping, so Retry-After tests assert on exact waits in zero time.
type recordSleeper struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *recordSleeper) Sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
	return ctx.Err()
}

func (s *recordSleeper) total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.slept {
		t += d
	}
	return t
}

// newFlakySite serves an index linking three pages; /bugs/doomed drops every
// connection, the others serve normally. The regression target: one
// unrecoverable page must cost exactly itself, not the crawl.
func newFlakySite(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<a href="/bugs/1">1</a> <a href="/bugs/doomed">d</a> <a href="/bugs/2">2</a>`)
	})
	mux.HandleFunc("/bugs/1", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "bug one") })
	mux.HandleFunc("/bugs/2", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "bug two") })
	mux.HandleFunc("/bugs/doomed", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // drop the connection, every time
	})
	return httptest.NewServer(mux)
}

func TestCrawlRecordsGapAndContinues(t *testing.T) {
	srv := newFlakySite(t)
	defer srv.Close()
	c := NewCrawler()
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	byPath := make(map[string]*Page)
	for _, p := range pages {
		byPath[strings.TrimPrefix(p.URL, srv.URL)] = p
	}
	for _, path := range []string{"/bugs/1", "/bugs/2"} {
		p, ok := byPath[path]
		if !ok || p.Err != nil || p.Status != 200 {
			t.Errorf("healthy page %s not fetched cleanly: %+v", path, p)
		}
	}
	doomed, ok := byPath["/bugs/doomed"]
	if !ok {
		t.Fatal("doomed page not recorded at all")
	}
	if doomed.Err == nil || doomed.Status != 0 {
		t.Errorf("doomed page should be a gap (Status 0, Err set), got %+v", doomed)
	}

	cov := CoverageOf(pages)
	if cov.Attempted != 4 || cov.Fetched != 3 || cov.Gaps != 1 {
		t.Errorf("coverage = %+v, want 4 attempted / 3 fetched / 1 gap", cov)
	}
	gaps := GapsOf(pages)
	if len(gaps) != 1 || !strings.HasSuffix(gaps[0].URL, "/bugs/doomed") {
		t.Errorf("gaps = %+v", gaps)
	}
	report := RenderGaps(pages)
	if !strings.Contains(report, "3/4 pages fetched") || !strings.Contains(report, "/bugs/doomed") {
		t.Errorf("gap report missing expected lines:\n%s", report)
	}
}

func TestRenderGapsClean(t *testing.T) {
	pages := []*Page{{URL: "http://x/a", Status: 200}, {URL: "http://x/b", Status: 404}}
	got := RenderGaps(pages)
	if !strings.Contains(got, "no gaps") || !strings.Contains(got, "1/2 pages fetched") {
		t.Errorf("clean report wrong:\n%s", got)
	}
}

// throttleOnce serves 429 + Retry-After on the first request to each path,
// then 200.
type throttleOnce struct {
	mu         sync.Mutex
	seen       map[string]int
	retryAfter string
}

func (h *throttleOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.seen[r.URL.Path]++
	first := h.seen[r.URL.Path] == 1
	h.mu.Unlock()
	if first {
		w.Header().Set("Retry-After", h.retryAfter)
		http.Error(w, "throttled", http.StatusTooManyRequests)
		return
	}
	fmt.Fprint(w, "served")
}

func TestCrawlHonorsRetryAfter(t *testing.T) {
	srv := httptest.NewServer(&throttleOnce{seen: make(map[string]int), retryAfter: "1"})
	defer srv.Close()
	sl := &recordSleeper{}
	c := NewCrawler(WithSleeper(sl))
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(pages) != 1 || pages[0].Status != 200 {
		t.Fatalf("throttled page not retried to success: %+v", pages)
	}
	if got := sl.total(); got != 1*time.Second {
		t.Errorf("slept %v honoring Retry-After, want 1s", got)
	}
}

func TestCrawlRetryAfterCapped(t *testing.T) {
	srv := httptest.NewServer(&throttleOnce{seen: make(map[string]int), retryAfter: "3600"})
	defer srv.Close()
	sl := &recordSleeper{}
	c := NewCrawler(WithSleeper(sl), WithRetryAfterCap(500*time.Millisecond))
	if _, err := c.Crawl(context.Background(), srv.URL+"/"); err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if got := sl.total(); got != 500*time.Millisecond {
		t.Errorf("slept %v, want the 500ms cap", got)
	}
}

func TestCrawlRetryAfterDisabled(t *testing.T) {
	srv := httptest.NewServer(&throttleOnce{seen: make(map[string]int), retryAfter: "1"})
	defer srv.Close()
	sl := &recordSleeper{}
	c := NewCrawler(WithSleeper(sl), WithRetryAfterCap(0))
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(pages) != 1 || pages[0].Status != http.StatusTooManyRequests {
		t.Fatalf("naive crawl should record the 429 as-is: %+v", pages)
	}
	if got := sl.total(); got != 0 {
		t.Errorf("naive crawl slept %v, want nothing", got)
	}
}

// alwaysThrottled serves 429 + Retry-After forever: the wait budget must
// bound how long one fetch chases the hint.
func TestCrawlRetryAfterWaitBudget(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "throttled", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	sl := &recordSleeper{}
	c := NewCrawler(WithSleeper(sl))
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(pages) != 1 || pages[0].Status != http.StatusTooManyRequests {
		t.Fatalf("exhausted waits should return the throttled page: %+v", pages)
	}
	if len(sl.slept) != maxRetryAfterWaits {
		t.Errorf("honored %d waits, want at most %d", len(sl.slept), maxRetryAfterWaits)
	}
}

func TestCrawlBodyTooLarge(t *testing.T) {
	big := strings.Repeat("x", MaxBodyBytes+1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	}))
	defer srv.Close()
	c := NewCrawler()
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	if len(pages) != 1 {
		t.Fatalf("got %d pages, want 1", len(pages))
	}
	if pages[0].Err == nil || !errors.Is(pages[0].Err, ErrBodyTooLarge) {
		t.Errorf("oversized body should be an ErrBodyTooLarge gap, got %v", pages[0].Err)
	}
}

// newCapSite serves a site whose pages link more URLs than a small cap can
// fetch: duplicate and fragment links, an offsite link, a 404 and a page
// that drops its connection (a gap), spread over two hubs whose leaf sets
// overlap.
func newCapSite(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `<a href="/hub/b">b</a> <a href="/hub/a">a</a> <a href="/hub/a#top">a again</a>`+
			` <a href="http://elsewhere.example/x">offsite</a> <a href="/gap">gap</a>`)
	})
	hub := func(name string, leaves ...int) {
		mux.HandleFunc("/hub/"+name, func(w http.ResponseWriter, r *http.Request) {
			for _, n := range leaves {
				fmt.Fprintf(w, `<a href="/leaf/%d">%d</a> <a href="/leaf/%d#x">again</a> `, n, n, n)
			}
			fmt.Fprint(w, `<a href="/missing">404</a> <a href="/">home</a>`)
		})
	}
	hub("a", 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	hub("b", 9, 10, 11, 12, 13, 14, 15)
	mux.HandleFunc("/leaf/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<a href="/leaf/20">deep</a> <a href="/hub/b">b</a> <a href="/gap">gap</a>`)
	})
	mux.HandleFunc("/gap", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler) // drop the connection, every time
	})
	return httptest.NewServer(mux)
}

// crawlTrace is the fetch sequence of a crawl: URL, status and whether the
// page is a gap.
func crawlTrace(pages []*Page) []string {
	out := make([]string, len(pages))
	for i, p := range pages {
		out[i] = fmt.Sprintf("%s %d gap=%t", p.URL, p.Status, p.Err != nil)
	}
	return out
}

// TestCrawlCapIsPrefix checks that the cap only truncates: a crawl capped at
// k returns exactly the first k pages of the uncapped crawl, for every k.
func TestCrawlCapIsPrefix(t *testing.T) {
	srv := newCapSite(t)
	defer srv.Close()
	full, err := NewCrawler().Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("uncapped crawl: %v", err)
	}
	want := crawlTrace(full)
	if cov := CoverageOf(full); cov.Gaps != 1 || len(full) < 20 {
		t.Fatalf("site too small to exercise the cap: %+v over %d pages", cov, len(full))
	}
	for k := 1; k <= len(full)+1; k++ {
		pages, err := NewCrawler(WithMaxPages(k)).Crawl(context.Background(), srv.URL+"/")
		if err != nil {
			t.Fatalf("cap %d: %v", k, err)
		}
		got := crawlTrace(pages)
		n := min(k, len(want))
		if len(got) != n {
			t.Fatalf("cap %d: fetched %d pages, want %d", k, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cap %d: page %d is %q, uncapped crawl has %q", k, i, got[i], want[i])
			}
		}
	}
}

// TestCrawlerReuse crawls twice with one Crawler: each crawl starts with an
// empty visited set, so both return the same pages.
func TestCrawlerReuse(t *testing.T) {
	srv := newSite(t)
	defer srv.Close()
	c := NewCrawler()
	first, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("first crawl: %v", err)
	}
	second, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatalf("second crawl: %v", err)
	}
	a, b := crawlTrace(first), crawlTrace(second)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("second crawl differs:\nfirst:  %q\nsecond: %q", a, b)
	}
}
