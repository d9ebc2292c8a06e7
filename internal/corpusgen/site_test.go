package corpusgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"faultstudy/internal/scrape"
)

func TestSitePageArithmetic(t *testing.T) {
	c := testCorpus(t, "faults=300", 17)
	s := NewSite(c)
	want := 0
	for i := 0; i < 300; i++ {
		d := c.dupCount(i)
		if d < 0 || d >= maxDupPages {
			t.Fatalf("dup count %d out of range", d)
		}
		want += 1 + d
	}
	if s.PRPages() != want {
		t.Fatalf("PRPages %d, want %d", s.PRPages(), want)
	}
	wantIdx := (want + sitePerPage - 1) / sitePerPage
	if s.IndexPages() != wantIdx {
		t.Fatalf("IndexPages %d, want %d", s.IndexPages(), wantIdx)
	}
	if s.PageCount() != 1+wantIdx+want {
		t.Fatalf("PageCount %d, want %d", s.PageCount(), 1+wantIdx+want)
	}
}

func TestSitePages(t *testing.T) {
	c := testCorpus(t, "faults=40", 3)
	s := NewSite(c)
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/gen/"); code != http.StatusOK || !strings.Contains(body, "/gen/index/0") {
		t.Fatalf("root: code %d body %q", code, body)
	}
	if code, body := get("/gen/index/0"); code != http.StatusOK || !strings.Contains(body, "/gen/pr/0") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	code, body := get("/gen/pr/0")
	if code != http.StatusOK || !strings.Contains(body, ">Synopsis:") || !strings.Contains(body, ">How-To-Repeat:") {
		t.Fatalf("canonical PR: code %d body %q", code, body)
	}
	// Find a duplicate page (first fault with a dup) and check it points home.
	for i, n := 0, 0; i < 40; i++ {
		d := c.dupCount(i)
		if d > 0 {
			_, dupBody := get(fmt.Sprintf("/gen/pr/%d", n+1))
			if !strings.Contains(dupBody, "duplicate") || !strings.Contains(dupBody, fmt.Sprintf("/gen/pr/%d", n)) {
				t.Fatalf("dup PR body %q lacks canonical link to %d", dupBody, n)
			}
			break
		}
		n += 1 + d
	}
	for _, bad := range []string{"/gen/pr/999999", "/gen/pr/x", "/gen/index/-1", "/elsewhere"} {
		if code, _ := get(bad); code != http.StatusNotFound {
			t.Errorf("%s: code %d, want 404", bad, code)
		}
	}
}

// TestSiteRenderingIsPure re-renders the same PR twice and across corpus
// instances: lazily rendered pages must be byte-identical.
func TestSiteRenderingIsPure(t *testing.T) {
	render := func() string {
		s := NewSite(testCorpus(t, "faults=25", 9))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/gen/pr/7", nil))
		return rec.Body.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("PR 7 rendering differs:\n%q\n%q", a, b)
	}
}

// TestSiteCrawlable crawls a whole small site through the real crawler: the
// root must reach every index and PR page with no gaps.
func TestSiteCrawlable(t *testing.T) {
	c := testCorpus(t, "faults=60", 21)
	site := NewSite(c)
	srv := httptest.NewServer(site)
	defer srv.Close()
	cr := scrape.NewCrawler(
		scrape.WithMaxPages(site.PageCount()+10),
		scrape.WithPathFilter("/gen"),
		scrape.WithClient(srv.Client()),
	)
	pages, err := cr.Crawl(context.Background(), srv.URL+"/gen/")
	if err != nil {
		t.Fatalf("crawl: %v", err)
	}
	if len(pages) != site.PageCount() {
		t.Fatalf("crawled %d pages, want %d", len(pages), site.PageCount())
	}
	for _, p := range pages {
		if p.Err != nil || p.Status != http.StatusOK {
			t.Fatalf("gap at %s: status %d err %v", p.URL, p.Status, p.Err)
		}
	}
}

// TestSiteScale sizes a 100k-page population without rendering it: the
// tentpole's at-scale emission claim, at prefix-sum cost only.
func TestSiteScale(t *testing.T) {
	c := testCorpus(t, "faults=50000", 2026)
	s := NewSite(c)
	if s.PRPages() < 100000 {
		t.Fatalf("50k faults yield %d PR pages, want >= 100000", s.PRPages())
	}
	// Spot-render a deep page to prove lazy rendering reaches the tail.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/gen/pr/%d", s.PRPages()-1), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("tail PR: code %d", rec.Code)
	}
}

// TestSiteIndexBytes pins the root and index pages byte for byte against a
// reference rendered with fmt from the page formats.
func TestSiteIndexBytes(t *testing.T) {
	s := NewSite(testCorpus(t, "faults=1200", 42))
	pages, prs := s.IndexPages(), s.PRPages()
	if pages < 3 || prs%sitePerPage == 0 {
		t.Fatalf("%d PR pages over %d index pages: want >= 3 indexes and a partial last chunk", prs, pages)
	}
	get := func(path string) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	var want strings.Builder
	want.WriteString("<html><body><h1>Generated fault PR database</h1>\n<ul>\n")
	for k := 0; k < pages; k++ {
		fmt.Fprintf(&want, "<li><a href=\"/gen/index/%d\">PRs %d&ndash;%d</a></li>\n",
			k, k*sitePerPage, min(prs, (k+1)*sitePerPage)-1)
	}
	want.WriteString("</ul></body></html>\n")
	if got := get("/gen"); got != want.String() {
		t.Errorf("root page differs:\ngot  %q\nwant %q", got, want.String())
	}

	for k := 0; k < pages; k++ {
		want.Reset()
		fmt.Fprintf(&want, "<html><body><h2>PR index %d</h2>\n<ul>\n", k)
		for n := k * sitePerPage; n < min(prs, (k+1)*sitePerPage); n++ {
			fmt.Fprintf(&want, "<li><a href=\"/gen/pr/%d\">PR %d</a></li>\n", n, n)
		}
		want.WriteString("</ul>\n")
		if k+1 < pages {
			fmt.Fprintf(&want, "<a href=\"/gen/index/%d\">next page</a>\n", k+1)
		}
		want.WriteString("</body></html>\n")
		if got := get(fmt.Sprintf("/gen/index/%d", k)); got != want.String() {
			t.Errorf("index %d differs:\ngot  %q\nwant %q", k, got, want.String())
		}
	}
}
