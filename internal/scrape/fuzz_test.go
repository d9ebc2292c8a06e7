package scrape

import (
	"slices"
	"testing"
)

// FuzzLinks checks the href-only link scan against the full tokenizer: the
// links of a document are exactly the non-empty href attributes of its a
// start tags as Tokenize reads them, in document order.
func FuzzLinks(f *testing.F) {
	for _, seed := range []string{
		`<a href="/a">A</a> <a name="anchor">no href</a>`,
		`<a href="/first" href="/second">dup</a>`,
		`<a href="/x" href>valueless last</a>`,
		`<A HREF="/upper">U</A>`,
		`<a href="/q?a=1&amp;b=&lt;2&gt;">enc</a>`,
		`<a href="&amp;">amp only</a>`,
		`<a href="">empty</a><a href=''>empty</a>`,
		"<a\thref=x>tab</a>",
		`<!-- <a href="/hidden"> --><a href="/shown">s</a>`,
		`<a href="/before"><!-- unterminated <a href="/after">`,
		`<a href="/open" <a href="/never-closed"`,
		`<a href=x/>`,
		`<a href=/bare id=z>b</a><a href='single'>s</a>`,
		`<!DOCTYPE html><?xml?><a href="/pi">p</a></a>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, html string) {
		var want []string
		for _, tok := range Tokenize(html) {
			if tok.Kind == TokenStartTag && tok.Name == "a" && tok.Attrs["href"] != "" {
				want = append(want, tok.Attrs["href"])
			}
		}
		if got := Links(html); !slices.Equal(got, want) {
			t.Fatalf("Links(%q) = %q, Tokenize reads %q", html, got, want)
		}
	})
}
