package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refLex is the plainest lexer: every string literal is copied through a
// builder, every symbol is converted from its byte, and the token slice
// grows from nil. FuzzLex checks lex against it.
func refLex(input string) ([]token, error) {
	var toks []token
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
			j := i + 1
			var sb strings.Builder
			for {
				if j >= n {
					return nil, fmt.Errorf("sqldb: unterminated string at byte %d", i)
				}
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			toks = append(toks, token{kind: tokString, text: sb.String()})
			i = j + 1
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
		case strings.ContainsRune("(),=*+", rune(c)):
			toks = append(toks, token{kind: tokSymbol, text: string(c)})
			i++
		case c == '<' || c == '>' || c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{kind: tokSymbol, text: input[i : i+2]})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sqldb: stray '!' at byte %d", i)
			} else {
				toks = append(toks, token{kind: tokSymbol, text: string(c)})
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

// FuzzLex checks that lex and refLex agree on every input: the same tokens,
// or the same error text.
func FuzzLex(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM serve WHERE k <= 12 ORDER BY k LIMIT 10",
		"INSERT INTO t VALUES (-3, 'it''s')",
		"INSERT INTO serve VALUES (8, 'p0')", "('a','b')",
		"UPDATE t SET k = k + 1 WHERE name != '' /* c */;",
		"'unterminated", "'a''", "''''", "'", "/* open", "a !b", "x <> y >= z",
		"\x00'\xff'", "é",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		got, gerr := lex(input)
		want, werr := refLex(input)
		if errText(gerr) != errText(werr) {
			t.Fatalf("lex(%q) error %v, reference %v", input, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lex(%q)\n got %v\nwant %v", input, got, want)
		}
	})
}
