package scrape

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// MaxBodyBytes caps how much of one response body a fetch will read. Bodies
// exceeding the cap fail the fetch with ErrBodyTooLarge instead of being
// silently truncated into a parseable-looking prefix.
const MaxBodyBytes = 8 << 20

// ErrBodyTooLarge reports a response body exceeding MaxBodyBytes.
var ErrBodyTooLarge = errors.New("scrape: response body exceeds size cap")

// maxRetryAfterWaits bounds how many Retry-After waits one fetch honors
// before returning the throttled response as-is.
const maxRetryAfterWaits = 2

// Page is one fetched page, or a recorded failure to fetch one.
type Page struct {
	// URL is the final URL of the page.
	URL string
	// Body is the raw response body.
	Body string
	// Status is the HTTP status code; 0 when the fetch failed outright.
	Status int
	// Err is the fetch failure, when one occurred. Pages with a non-nil Err
	// are gaps: recorded, skipped, and never followed.
	Err error
}

// Sleeper paces the crawl: politeness delays and Retry-After waits flow
// through it, so experiments can inject a virtual clock and crawl at
// hardware speed. The resilient layer's Clock satisfies it.
type Sleeper interface {
	// Sleep pauses for d, returning early with the context's error if it
	// expires first.
	Sleep(ctx context.Context, d time.Duration) error
}

// realSleeper is the default Sleeper: real time, context-bounded.
type realSleeper struct{}

// Sleep pauses for d or until ctx expires.
func (realSleeper) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d): //faultlint:ignore wallclock politeness/Retry-After pacing against a real HTTP server; ctx bounds it
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CrawlerOption configures a Crawler.
type CrawlerOption func(*Crawler)

// WithMaxPages caps the number of pages fetched. Links the cap can no
// longer reach are neither resolved nor recorded, so a crawl costs what it
// fetches rather than what the fetched pages link to.
func WithMaxPages(n int) CrawlerOption { return func(c *Crawler) { c.maxPages = n } }

// WithDelay sets the politeness delay between requests.
func WithDelay(d time.Duration) CrawlerOption { return func(c *Crawler) { c.delay = d } }

// WithPathFilter restricts the crawl to URLs whose path has the given prefix.
func WithPathFilter(prefix string) CrawlerOption {
	return func(c *Crawler) { c.pathPrefix = prefix }
}

// WithClient sets the HTTP client (the default has a 10s timeout).
func WithClient(client *http.Client) CrawlerOption { return func(c *Crawler) { c.client = client } }

// WithSleeper injects the pacing clock (politeness delays and Retry-After
// waits). The default sleeps real, context-bounded time.
func WithSleeper(s Sleeper) CrawlerOption { return func(c *Crawler) { c.sleeper = s } }

// WithRetryAfterCap bounds how long one honored Retry-After wait may be.
// The default is 2s; 0 disables Retry-After honoring entirely (the naive
// baseline the RESIL experiment measures against).
func WithRetryAfterCap(d time.Duration) CrawlerOption {
	return func(c *Crawler) { c.retryAfterCap = d }
}

// Crawler is a polite, same-host, breadth-first crawler. A fetch that fails
// outright costs only its own page: the failure is recorded as a gap
// (Page.Err) and the crawl continues, so one bad page never loses the
// corpus mined from the rest.
type Crawler struct {
	client        *http.Client
	maxPages      int
	delay         time.Duration
	pathPrefix    string
	sleeper       Sleeper
	retryAfterCap time.Duration
}

// NewCrawler builds a crawler with the given options.
func NewCrawler(opts ...CrawlerOption) *Crawler {
	c := &Crawler{
		client:        &http.Client{Timeout: 10 * time.Second},
		maxPages:      10000,
		sleeper:       realSleeper{},
		retryAfterCap: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Crawl fetches start and every same-host page reachable from it, breadth
// first, honoring the page cap and path filter. Pages are returned in fetch
// order. Non-2xx responses are recorded but not followed. Failed fetches
// are recorded as gap pages (Status 0, Err set) and skipped rather than
// aborting the crawl; only context cancellation ends a crawl early.
//
// Every dequeued URL becomes exactly one page, so a link queued at or past
// the page cap is never fetched. Once the queue already holds every page the
// cap has room for, a page's links are neither resolved nor recorded as
// visited; the fetched sequence is the same as if they were.
func (c *Crawler) Crawl(ctx context.Context, start string) ([]*Page, error) {
	base, err := url.Parse(start)
	if err != nil {
		return nil, fmt.Errorf("scrape: bad start url %q: %w", start, err)
	}
	if base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("scrape: start url %q must be absolute", start)
	}

	queue := []string{base.String()}
	visited := map[string]bool{queue[0]: true}
	var pages []*Page
	first := true
	for len(queue) > 0 && len(pages) < c.maxPages {
		if err := ctx.Err(); err != nil {
			return pages, err
		}
		next := queue[0]
		queue = queue[1:]
		if !first && c.delay > 0 {
			if err := c.sleeper.Sleep(ctx, c.delay); err != nil {
				return pages, err
			}
		}
		first = false
		page, err := c.fetch(ctx, next)
		if err != nil {
			if ctx.Err() != nil {
				return pages, ctx.Err()
			}
			// A lost page is a gap, not a lost crawl: record and move on.
			pages = append(pages, &Page{URL: next, Err: fmt.Errorf("scrape: fetch %s: %w", next, err)})
			continue
		}
		pages = append(pages, page)
		if page.Status < 200 || page.Status >= 300 {
			continue
		}
		room := c.maxPages - len(pages) - len(queue)
		if room <= 0 {
			continue
		}
		for _, link := range c.eligibleLinks(base, next, page.Body) {
			if visited[link] {
				continue
			}
			visited[link] = true
			queue = append(queue, link)
			if room--; room == 0 {
				break
			}
		}
	}
	return pages, nil
}

// fetch gets one URL, honoring Retry-After hints on 429/503 responses: the
// advertised wait (capped at the crawler's Retry-After cap, bounded by ctx)
// is slept and the fetch retried, at most maxRetryAfterWaits times. The
// final response — throttled or not — is returned as the page.
func (c *Crawler) fetch(ctx context.Context, u string) (*Page, error) {
	for waits := 0; ; waits++ {
		page, retryAfter, err := c.fetchOnce(ctx, u)
		if err != nil {
			return nil, err
		}
		if retryAfter <= 0 || c.retryAfterCap <= 0 || waits >= maxRetryAfterWaits {
			return page, nil
		}
		if retryAfter > c.retryAfterCap {
			retryAfter = c.retryAfterCap
		}
		if err := c.sleeper.Sleep(ctx, retryAfter); err != nil {
			return nil, err
		}
	}
}

// fetchOnce performs one GET, returning the page and any Retry-After hint
// carried on a throttling status. Bodies over MaxBodyBytes fail with
// ErrBodyTooLarge rather than being silently cut.
func (c *Crawler) fetchOnce(ctx context.Context, u string) (*Page, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("User-Agent", "faultstudy-crawler/1.0")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	// A declared length within the cap sizes the buffer once; MinRead spare
	// bytes let the final read see EOF without growing it.
	var buf bytes.Buffer
	if n := resp.ContentLength; n >= 0 && n <= MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxBodyBytes+1)); err != nil {
		return nil, 0, err
	}
	body := buf.Bytes()
	if len(body) > MaxBodyBytes {
		return nil, 0, fmt.Errorf("%w: %s is over %d bytes", ErrBodyTooLarge, u, MaxBodyBytes)
	}
	var retryAfter time.Duration
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return &Page{URL: u, Body: string(body), Status: resp.StatusCode}, retryAfter, nil
}

// eligibleLinks resolves and filters the links on a page: same host as base,
// http(s), fragment-stripped, matching the path filter, deduplicated, in
// stable order.
func (c *Crawler) eligibleLinks(base *url.URL, pageURL, body string) []string {
	pu, err := url.Parse(pageURL)
	if err != nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, raw := range Links(body) {
		lu, err := url.Parse(strings.TrimSpace(raw))
		if err != nil {
			continue
		}
		abs := pu.ResolveReference(lu)
		abs.Fragment = ""
		if abs.Scheme != "http" && abs.Scheme != "https" {
			continue
		}
		if abs.Host != base.Host {
			continue
		}
		if c.pathPrefix != "" && !strings.HasPrefix(abs.Path, c.pathPrefix) {
			continue
		}
		s := abs.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
