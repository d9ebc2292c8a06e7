// Package sqldb is a simulated multi-user SQL database server in the mold of
// MySQL 3.22, built on the simulated operating environment and seeded with
// the bugs the study catalogued for MySQL (§5.3): the index-update-scan
// crash, the ORDER-BY-on-empty-result crash, the COUNT-on-empty-table crash,
// the OPTIMIZE TABLE crash, the FLUSH-after-LOCK crash, and the
// environment-dependent conditions (descriptor competition, missing reverse
// DNS, oversized database files, full file systems, and the two races).
//
// The engine is real, if small: a lexer, a recursive-descent parser, an
// executor over in-memory tables with disk-space accounting on the simulated
// file system, and B-tree secondary indexes. The seeded bugs live at the
// exact spots their originals did — the index-update bug, for example, is the
// genuine naive scan-while-updating algorithm, and its fix (scan first, then
// update) is what runs when the bug is disabled.
package sqldb

import (
	"fmt"
	"strings"
)

// tokenKind discriminates lexer tokens.
type tokenKind int

const (
	tokIdent tokenKind = iota + 1
	tokNumber
	tokString
	tokSymbol // ( ) , = < > <= >= != *
	tokEOF
)

// token is one lexical token.
type token struct {
	kind tokenKind
	text string // identifiers are kept verbatim; keywords match case-insensitively
}

// lex splits a statement into tokens. SQL strings use single quotes, with
// a doubled quote standing for one. C-style /* */ comments are skipped.
// Token texts are slices of the input wherever the text appears there
// verbatim, which is every token but a string literal with an escaped
// quote.
func lex(input string) ([]token, error) {
	// Statements average about one token per four bytes; the slice grows
	// past that when a statement is denser.
	toks := make([]token, 0, len(input)/4+2)
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && i+1 < n && input[i+1] == '*':
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sqldb: unterminated comment at byte %d", i)
			}
			i += 2 + end + 2
		case c == '\'':
			text, next, err := lexString(input, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: text})
			i = next
		case c >= '0' && c <= '9' || (c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			j := i + 1
			for j < n && input[j] >= '0' && input[j] <= '9' {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j]})
			i = j
		case isIdentByte(c):
			j := i
			for j < n && isIdentByte(input[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j]})
			i = j
		case strings.IndexByte("(),=*+", c) >= 0:
			toks = append(toks, token{kind: tokSymbol, text: input[i : i+1]})
			i++
		case c == '<' || c == '>' || c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2]})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqldb: stray '!' at byte %d", i)
			} else {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+1]})
				i++
			}
		case c == ';':
			i++ // statement terminator, ignored
		default:
			return nil, fmt.Errorf("sqldb: unexpected byte %q at %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

// lexString reads the string literal whose opening quote is at input[i],
// returning its text and the byte after its closing quote. A literal with
// no doubled quote is a slice of the input; only an escaped one is copied.
func lexString(input string, i int) (text string, next int, err error) {
	j := i + 1
	end := strings.IndexByte(input[j:], '\'')
	if end < 0 {
		return "", 0, fmt.Errorf("sqldb: unterminated string at byte %d", i)
	}
	j += end
	if j+1 >= len(input) || input[j+1] != '\'' {
		return input[i+1 : j], j + 1, nil
	}
	var sb strings.Builder
	sb.WriteString(input[i+1 : j])
	for {
		if j >= len(input) {
			return "", 0, fmt.Errorf("sqldb: unterminated string at byte %d", i)
		}
		if input[j] == '\'' {
			if j+1 < len(input) && input[j+1] == '\'' {
				sb.WriteByte('\'')
				j += 2
				continue
			}
			return sb.String(), j + 1, nil
		}
		sb.WriteByte(input[j])
		j++
	}
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
}

// cursor walks a token stream during parsing.
type cursor struct {
	toks []token
	pos  int
}

func (c *cursor) peek() token { return c.toks[c.pos] }

func (c *cursor) next() token {
	t := c.toks[c.pos]
	if t.kind != tokEOF {
		c.pos++
	}
	return t
}

// acceptKeyword consumes the next token when it is the given keyword
// (case-insensitive).
func (c *cursor) acceptKeyword(kw string) bool {
	t := c.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		c.pos++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (c *cursor) expectKeyword(kw string) error {
	if !c.acceptKeyword(kw) {
		return fmt.Errorf("sqldb: expected %s, got %q", kw, c.peek().text)
	}
	return nil
}

// acceptSymbol consumes the next token when it is the given symbol.
func (c *cursor) acceptSymbol(sym string) bool {
	t := c.peek()
	if t.kind == tokSymbol && t.text == sym {
		c.pos++
		return true
	}
	return false
}

// expectSymbol consumes the symbol or fails.
func (c *cursor) expectSymbol(sym string) error {
	if !c.acceptSymbol(sym) {
		return fmt.Errorf("sqldb: expected %q, got %q", sym, c.peek().text)
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (c *cursor) expectIdent() (string, error) {
	t := c.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqldb: expected identifier, got %q", t.text)
	}
	c.pos++
	return t.text, nil
}
