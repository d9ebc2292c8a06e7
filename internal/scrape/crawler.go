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
	"strings"
	"time"
)

// MaxBodyBytes caps how much of one response body a fetch will read. Bodies
// exceeding the cap fail the fetch with ErrBodyTooLarge instead of being
// silently truncated into a parseable-looking prefix.
const MaxBodyBytes = 8 << 20

// ErrBodyTooLarge reports a response body exceeding MaxBodyBytes.
var ErrBodyTooLarge = errors.New("scrape: response body exceeds size cap")

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

// CrawlerOption configures a Crawler.
type CrawlerOption func(*Crawler)

// WithMaxPages caps the number of pages fetched. Links the cap can no
// longer reach are neither resolved nor recorded, so a crawl costs what it
// fetches rather than what the fetched pages link to.
func WithMaxPages(n int) CrawlerOption { return func(c *Crawler) { c.maxPages = n } }

// WithPathFilter restricts the crawl to URLs whose path has the given prefix.
func WithPathFilter(prefix string) CrawlerOption {
	return func(c *Crawler) { c.pathPrefix = prefix }
}

// WithClient sets the HTTP client (the default has a 10s timeout).
func WithClient(client *http.Client) CrawlerOption { return func(c *Crawler) { c.client = client } }

// Crawler is a same-host, breadth-first crawler. It fetches each page once
// and never retries: recovery belongs to the HTTP client it is given (the
// resilient client in the miners), and whatever that client returns is
// what the crawl records. A fetch that fails outright costs only its own
// page: the failure is recorded as a gap (Page.Err) and the crawl
// continues, so one bad page never loses the corpus mined from the rest.
type Crawler struct {
	client     *http.Client
	maxPages   int
	pathPrefix string
}

// NewCrawler builds a crawler with the given options.
func NewCrawler(opts ...CrawlerOption) *Crawler {
	c := &Crawler{client: &http.Client{Timeout: 10 * time.Second}, maxPages: 10000}
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
	for len(queue) > 0 && len(pages) < c.maxPages {
		if err := ctx.Err(); err != nil {
			return pages, err
		}
		next := queue[0]
		queue = queue[1:]
		page, err := c.fetch(ctx, next)
		if err != nil {
			if ctx.Err() != nil {
				return pages, ctx.Err()
			}
			// A lost page is a gap, not a lost crawl: record and move on.
			// Page.URL names the page, so the error is kept as it came.
			pages = append(pages, &Page{URL: next, Err: err})
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

// fetch performs one GET and returns the page, whatever its status. Bodies
// over MaxBodyBytes fail with ErrBodyTooLarge rather than being silently
// cut.
func (c *Crawler) fetch(ctx context.Context, u string) (*Page, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", "faultstudy-crawler/1.0")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A declared length within the cap sizes the buffer once; MinRead spare
	// bytes let the final read see EOF without growing it.
	var buf bytes.Buffer
	if n := resp.ContentLength; n >= 0 && n <= MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxBodyBytes+1)); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: over %d bytes", ErrBodyTooLarge, MaxBodyBytes)
	}
	return &Page{URL: u, Body: string(body), Status: resp.StatusCode}, nil
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
