package scrape

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize(`<html><body><p class="x">Hello &amp; goodbye</p><a href="/next">link</a></body></html>`)
	var starts, ends, texts int
	for _, tok := range toks {
		switch tok.Kind {
		case TokenStartTag:
			starts++
		case TokenEndTag:
			ends++
		case TokenText:
			texts++
		}
	}
	if starts != 4 || ends != 4 {
		t.Errorf("starts=%d ends=%d", starts, ends)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == TokenText && tok.Text == "Hello & goodbye" {
			found = true
		}
	}
	if !found {
		t.Error("entity decoding failed")
	}
}

func TestTokenizeAttrs(t *testing.T) {
	toks := Tokenize(`<a href='/x' id=plain checked>t</a>`)
	if len(toks) == 0 || toks[0].Kind != TokenStartTag {
		t.Fatal("no start tag")
	}
	a := toks[0].Attrs
	if a["href"] != "/x" || a["id"] != "plain" {
		t.Errorf("attrs = %v", a)
	}
	if _, ok := a["checked"]; !ok {
		t.Errorf("bare attr missing: %v", a)
	}
}

func TestTokenizeCommentsAndDoctype(t *testing.T) {
	toks := Tokenize(`<!DOCTYPE html><!-- secret --><p>visible</p>`)
	for _, tok := range toks {
		if tok.Kind == TokenText && strings.Contains(tok.Text, "secret") {
			t.Error("comment leaked into text")
		}
	}
}

func TestTokenizeMalformed(t *testing.T) {
	// Unterminated tags and comments must not panic or loop.
	for _, in := range []string{"<", "<a", "<!-- never closed", "text < more", "<>"} {
		_ = Tokenize(in)
	}
}

func TestLinks(t *testing.T) {
	html := `<a href="/a">A</a> <a name="anchor">no href</a> <A HREF="/b">B</A>`
	got := Links(html)
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("Links = %v", got)
	}
}

func TestText(t *testing.T) {
	html := `<html><head><style>p{color:red}</style><script>evil()</script></head>
<body><h1>Title</h1><p>First para</p><p>Second   para</p>
<pre>preformatted</pre></body></html>`
	text := Text(html)
	if strings.Contains(text, "evil") || strings.Contains(text, "color:red") {
		t.Errorf("script/style leaked: %q", text)
	}
	for _, want := range []string{"Title", "First para", "Second   para", "preformatted"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q in %q", want, text)
		}
	}
	if strings.Contains(text, "\n\n\n") {
		t.Error("blank runs not collapsed")
	}
}

func TestEncodeEntitiesRoundTrip(t *testing.T) {
	in := `a < b & "c" > d`
	enc := EncodeEntities(in)
	if strings.ContainsAny(enc, `<>"`) {
		t.Errorf("EncodeEntities left specials: %q", enc)
	}
	if got := decodeEntities(enc); got != in {
		t.Errorf("round trip: %q -> %q", in, got)
	}
}

func newSite(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `<a href="/bugs/1">one</a> <a href="/bugs/2">two</a> <a href="/other">other</a> <a href="http://elsewhere.example/x">offsite</a>`)
	})
	mux.HandleFunc("/bugs/1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<a href="/bugs/2#frag">two again</a> bug one`)
	})
	mux.HandleFunc("/bugs/2", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `bug two <a href="/bugs/missing">missing</a>`)
	})
	mux.HandleFunc("/other", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `other page`)
	})
	return httptest.NewServer(mux)
}

func TestCrawlSameHostBFS(t *testing.T) {
	srv := newSite(t)
	defer srv.Close()
	c := NewCrawler()
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	urls := make(map[string]int)
	for _, p := range pages {
		urls[strings.TrimPrefix(p.URL, srv.URL)] = p.Status
	}
	for _, want := range []string{"/", "/bugs/1", "/bugs/2", "/other"} {
		if _, ok := urls[want]; !ok {
			t.Errorf("missing page %s (got %v)", want, urls)
		}
	}
	if st := urls["/bugs/missing"]; st != http.StatusNotFound {
		t.Errorf("/bugs/missing status = %d", st)
	}
	for u := range urls {
		if strings.Contains(u, "elsewhere") {
			t.Error("followed offsite link")
		}
	}
	// Fragment variants must not be fetched twice.
	count := 0
	for _, p := range pages {
		if strings.HasSuffix(p.URL, "/bugs/2") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("/bugs/2 fetched %d times", count)
	}
}

func TestCrawlPathFilter(t *testing.T) {
	srv := newSite(t)
	defer srv.Close()
	c := NewCrawler(WithPathFilter("/bugs/"))
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages[1:] { // the start page itself is exempt
		if !strings.Contains(p.URL, "/bugs/") {
			t.Errorf("path filter leaked %s", p.URL)
		}
	}
}

func TestCrawlMaxPages(t *testing.T) {
	srv := newSite(t)
	defer srv.Close()
	c := NewCrawler(WithMaxPages(2))
	pages, err := c.Crawl(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 {
		t.Errorf("fetched %d pages, want 2", len(pages))
	}
}

func TestCrawlContextCancel(t *testing.T) {
	srv := newSite(t)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCrawler()
	if _, err := c.Crawl(ctx, srv.URL+"/"); err == nil {
		t.Error("canceled crawl should return an error")
	}
}

func TestCrawlBadStart(t *testing.T) {
	c := NewCrawler()
	if _, err := c.Crawl(context.Background(), "not-absolute"); err == nil {
		t.Error("relative start url should fail")
	}
	if _, err := c.Crawl(context.Background(), "://bad"); err == nil {
		t.Error("malformed url should fail")
	}
}
