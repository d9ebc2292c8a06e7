// Package scrape provides the minimal HTML handling the mining pipeline
// needs: a tokenizer good enough for the static tracker pages of the era,
// link extraction, tag stripping, and a same-host crawler built on
// net/http that fetches each page once and leaves recovery to its client.
package scrape

import (
	"strings"
)

// Token is one HTML token.
type Token struct {
	// Kind is the token kind.
	Kind TokenKind
	// Name is the lowercased tag name for start/end tags.
	Name string
	// Attrs holds attributes for start tags (lowercased keys).
	Attrs map[string]string
	// Text is the text content for text tokens.
	Text string
}

// TokenKind discriminates Token values.
type TokenKind int

const (
	// TokenText is character data.
	TokenText TokenKind = iota + 1
	// TokenStartTag is an opening or self-closing tag.
	TokenStartTag
	// TokenEndTag is a closing tag.
	TokenEndTag
)

// Tokenize splits an HTML document into tokens. It handles the subset of
// HTML the simulated trackers emit: tags with quoted or bare attribute
// values, comments, and character data. Entities in text are decoded for the
// five predefined entities.
func Tokenize(html string) []Token {
	var tokens []Token
	scan(html, func(kind TokenKind, name, text string) {
		switch kind {
		case TokenText:
			tokens = append(tokens, Token{Kind: TokenText, Text: decodeEntities(text)})
		case TokenEndTag:
			tokens = append(tokens, Token{Kind: TokenEndTag, Name: name})
		case TokenStartTag:
			tokens = append(tokens, Token{Kind: TokenStartTag, Name: name, Attrs: parseAttrs(text)})
		}
	})
	return tokens
}

// scan is the one tokenizing loop: it walks html in document order and calls
// emit once per token. Text tokens carry their raw (undecoded) text and no
// name; tags carry their lowercased name, and start tags also their raw
// attribute text, left for eachAttr to parse.
func scan(html string, emit func(kind TokenKind, name, text string)) {
	i := 0
	n := len(html)
	emitText := func(s string) {
		if s != "" {
			emit(TokenText, "", s)
		}
	}
	for i < n {
		lt := strings.IndexByte(html[i:], '<')
		if lt < 0 {
			emitText(html[i:])
			break
		}
		emitText(html[i : i+lt])
		i += lt
		// Comment?
		if strings.HasPrefix(html[i:], "<!--") {
			end := strings.Index(html[i+4:], "-->")
			if end < 0 {
				break // unterminated comment swallows the rest
			}
			i += 4 + end + 3
			continue
		}
		gt := strings.IndexByte(html[i:], '>')
		if gt < 0 {
			emitText(html[i:])
			break
		}
		raw := html[i+1 : i+gt]
		i += gt + 1
		raw = strings.TrimSpace(raw)
		if raw == "" || strings.HasPrefix(raw, "!") || strings.HasPrefix(raw, "?") {
			continue // doctype / processing instruction
		}
		if strings.HasPrefix(raw, "/") {
			emit(TokenEndTag, strings.ToLower(strings.TrimSpace(raw[1:])), "")
			continue
		}
		raw = strings.TrimSuffix(raw, "/")
		name, attrText, _ := strings.Cut(raw, " ")
		emit(TokenStartTag, strings.ToLower(strings.TrimSpace(name)), attrText)
	}
}

func parseAttrs(s string) map[string]string {
	attrs := make(map[string]string)
	eachAttr(s, func(key, val string) { attrs[key] = decodeEntities(val) })
	return attrs
}

// eachAttr walks a start tag's attribute text and calls f with each
// lowercased key and its raw (undecoded) value, in order; a key without a
// value gets "". A repeated key is passed each time it appears.
func eachAttr(s string, f func(key, val string)) {
	i := 0
	n := len(s)
	for i < n {
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' {
			i++
		}
		key := strings.ToLower(s[start:i])
		if key == "" {
			i++
			continue
		}
		if i >= n || s[i] != '=' {
			f(key, "")
			continue
		}
		i++ // skip '='
		if i < n && (s[i] == '"' || s[i] == '\'') {
			quote := s[i]
			i++
			vstart := i
			for i < n && s[i] != quote {
				i++
			}
			f(key, s[vstart:i])
			if i < n {
				i++
			}
		} else {
			vstart := i
			for i < n && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' {
				i++
			}
			f(key, s[vstart:i])
		}
	}
}

var entityReplacer = strings.NewReplacer(
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&nbsp;", " ",
	"&amp;", "&", // must be last so double-encoded text decodes once
)

func decodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}

var encodeReplacer = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
)

// EncodeEntities escapes text for embedding in HTML.
func EncodeEntities(s string) string { return encodeReplacer.Replace(s) }

// Links returns the href targets of all anchor tags, in document order. It
// reads the same tokens Tokenize does, but parses attributes only on anchor
// start tags: the last href of a tag wins, and an empty target is dropped.
func Links(html string) []string {
	var links []string
	scan(html, func(kind TokenKind, name, attrText string) {
		if kind != TokenStartTag || name != "a" {
			return
		}
		href := ""
		eachAttr(attrText, func(key, val string) {
			if key == "href" {
				href = val
			}
		})
		if href = decodeEntities(href); href != "" {
			links = append(links, href)
		}
	})
	return links
}

// textSkip tags whose contents are not document text.
var textSkip = map[string]bool{"script": true, "style": true}

// blockTags are tags that imply a line break in extracted text.
var blockTags = map[string]bool{
	"p": true, "br": true, "div": true, "tr": true, "li": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "pre": true,
	"table": true, "blockquote": true, "hr": true,
}

// Text extracts the visible text of an HTML document, with block-level tags
// producing line breaks. Runs of blank lines collapse to one.
func Text(html string) string {
	var b strings.Builder
	skipDepth := 0
	for _, tok := range Tokenize(html) {
		switch tok.Kind {
		case TokenStartTag:
			if textSkip[tok.Name] {
				skipDepth++
			}
			if blockTags[tok.Name] {
				b.WriteByte('\n')
			}
		case TokenEndTag:
			if textSkip[tok.Name] && skipDepth > 0 {
				skipDepth--
			}
			if blockTags[tok.Name] {
				b.WriteByte('\n')
			}
		case TokenText:
			if skipDepth == 0 {
				b.WriteString(tok.Text)
			}
		}
	}
	// Normalize: trim each line, collapse blank runs.
	lines := strings.Split(b.String(), "\n")
	var out []string
	blank := true
	for _, l := range lines {
		t := strings.TrimRight(l, " \t")
		if strings.TrimSpace(t) == "" {
			if !blank {
				out = append(out, "")
			}
			blank = true
			continue
		}
		out = append(out, t)
		blank = false
	}
	return strings.TrimSpace(strings.Join(out, "\n"))
}
