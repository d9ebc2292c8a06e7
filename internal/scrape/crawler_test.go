package scrape

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultstudy/internal/chaoshttp"
	"faultstudy/internal/resilient"
)

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
	report := RenderGapList(gaps)
	if !strings.Contains(report, "/bugs/doomed") {
		t.Errorf("gap report missing expected lines:\n%s", report)
	}
}

func TestCoverageClean(t *testing.T) {
	pages := []*Page{{URL: "http://x/a", Status: 200}, {URL: "http://x/b", Status: 404}}
	cov := CoverageOf(pages)
	if cov != (Coverage{Attempted: 2, Fetched: 1, NonOK: 1}) {
		t.Errorf("coverage = %+v, want 2 attempted / 1 fetched / 1 non-2xx / 0 gaps", cov)
	}
	if gaps := GapsOf(pages); len(gaps) != 0 {
		t.Errorf("a non-2xx page is not a gap: %+v", gaps)
	}
}

// countingSite serves an index linking two bug pages and counts the
// requests each path receives.
type countingSite struct {
	mu   sync.Mutex
	hits map[string]int
}

func (s *countingSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.hits[r.URL.Path]++
	s.mu.Unlock()
	if r.URL.Path == "/" {
		fmt.Fprint(w, `<a href="/bugs/1">1</a> <a href="/bugs/2">2</a>`)
		return
	}
	fmt.Fprint(w, "bug")
}

// crawlThrottled crawls a countingSite through pol's resilient client over a
// chaos injector that answers the first request to every URL with 429 and
// Retry-After: 1, all on one virtual clock.
func crawlThrottled(t *testing.T, pol resilient.Policy) ([]*Page, map[string]int, resilient.Stats, time.Duration) {
	t.Helper()
	var throttle chaoshttp.Fault
	for _, f := range chaoshttp.Catalog() {
		if f.Name == "edt/429-once" {
			throttle = f
		}
	}
	throttle.Rate = 1
	site := &countingSite{hits: make(map[string]int)}
	clock := chaoshttp.NewVirtualClock()
	inj := chaoshttp.NewInjector(chaoshttp.Config{Seed: 1, Faults: []chaoshttp.Fault{throttle}},
		chaoshttp.HandlerTransport{Handler: site}, clock)
	client := resilient.New(pol, resilient.WithTransport(inj), resilient.WithClock(clock))
	pages, err := NewCrawler(WithClient(client.HTTPClient())).Crawl(context.Background(), "http://tracker.test/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	requests := make(map[string]int)
	for _, in := range inj.Injections() {
		requests[in.URL]++
	}
	for path, n := range site.hits {
		requests[path] += n
	}
	return pages, requests, client.Stats(), clock.Now()
}

// TestCrawlHonorsRetryAfter: the crawl honors Retry-After through its
// client. The retry policy waits out each throttle and refetches, so every
// page arrives after exactly two requests.
func TestCrawlHonorsRetryAfter(t *testing.T) {
	pages, requests, st, slept := crawlThrottled(t, resilient.RetryPolicy())
	if got := crawlTrace(pages); strings.Join(got, "\n") != strings.Join([]string{
		"http://tracker.test/ 200 gap=false",
		"http://tracker.test/bugs/1 200 gap=false",
		"http://tracker.test/bugs/2 200 gap=false",
	}, "\n") {
		t.Fatalf("throttled pages not retried to success: %q", got)
	}
	if fmt.Sprint(requests) != "map[/:2 /bugs/1:2 /bugs/2:2]" {
		t.Errorf("requests per path = %v, want two each", requests)
	}
	if st.RetryAfterWaits != 3 || slept != 3*time.Second {
		t.Errorf("%d Retry-After waits over %v, want 3 over 3s", st.RetryAfterWaits, slept)
	}
}

// TestCrawlRetryAfterDisabled: under the naive client nothing honors
// Retry-After. The crawler records the throttled root as-is after one
// request and sleeps nothing.
func TestCrawlRetryAfterDisabled(t *testing.T) {
	pages, requests, st, slept := crawlThrottled(t, resilient.NaivePolicy())
	if len(pages) != 1 || pages[0].Status != http.StatusTooManyRequests || pages[0].Err != nil {
		t.Fatalf("naive crawl should record the 429 as-is: %q", crawlTrace(pages))
	}
	if fmt.Sprint(requests) != "map[/:1]" {
		t.Errorf("requests per path = %v, want one", requests)
	}
	if st.RetryAfterWaits != 0 || slept != 0 {
		t.Errorf("naive crawl made %d Retry-After waits over %v, want none", st.RetryAfterWaits, slept)
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

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestGapLineNamesURLOnce pins one gap line: the crawler records the fetch
// error as it came, so the line shows the URL in its column and once more
// in net/http's error, and the breaker's reason says "resilient:" once.
func TestGapLineNamesURLOnce(t *testing.T) {
	site := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != "/" {
			return nil, errors.New("connection reset")
		}
		body := `<a href="/bugs/1">1</a> <a href="/bugs/2">2</a>`
		return &http.Response{StatusCode: 200, Header: http.Header{}, Request: r,
			Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body))}, nil
	})
	pol := resilient.FullPolicy()
	pol.BreakerThreshold, pol.BreakerCooldown = 1, time.Hour
	client := resilient.New(pol, resilient.WithTransport(site), resilient.WithClock(chaoshttp.NewVirtualClock()))
	pages, err := NewCrawler(WithClient(client.HTTPClient())).Crawl(context.Background(), "http://tracker.test/")
	if err != nil {
		t.Fatalf("Crawl: %v", err)
	}
	gaps := GapsOf(pages)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %+v, want /bugs/1 and /bugs/2", gaps)
	}
	want := `  http://tracker.test/bugs/2               Get "http://tracker.test/bugs/2": resilient: tracker.test: circuit breaker open` + "\n"
	if got := RenderGapList(gaps[1:]); got != want {
		t.Errorf("gap line\n got %q\nwant %q", got, want)
	}
}
