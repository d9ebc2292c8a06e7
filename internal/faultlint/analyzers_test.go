package faultlint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the fixture expectation marker: `// want EDN`.
var wantRe = regexp.MustCompile(`// want (EI|EDN|EDT)\b`)

// loadFixture loads one testdata/<name> directory as a package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(token.NewFileSet(), filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s: no package", name)
	}
	return pkg
}

// fixtureWants scans the fixture sources for expectation markers and returns
// file:line -> expected class short name.
func fixtureWants(t *testing.T, dir string) map[string]string {
	t.Helper()
	wants := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				wants[fmt.Sprintf("%s:%d", path, i+1)] = m[1]
			}
		}
	}
	return wants
}

// TestAnalyzerFixtures runs each analyzer over its fixture package and
// compares active findings against the `// want <class>` markers: every
// marker must be hit with the expected predicted class, and no unmarked line
// may fire.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, a.Name)
			result, err := Run([]*Package{pkg}, []string{a.Name})
			if err != nil {
				t.Fatal(err)
			}
			wants := fixtureWants(t, filepath.Join("testdata", a.Name))
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want markers", a.Name)
			}
			got := make(map[string]string)
			for _, d := range activeOf(result) {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				got[key] = d.Class.Short()
				if d.Rule != a.Name {
					t.Errorf("%s: finding from rule %s leaked into the %s run", key, d.Rule, a.Name)
				}
			}
			for key, class := range wants {
				switch gotClass, ok := got[key]; {
				case !ok:
					t.Errorf("%s: expected a %s finding (%s), got none", key, a.Name, class)
				case gotClass != class:
					t.Errorf("%s: predicted class %s, want %s", key, gotClass, class)
				}
			}
			for key := range got {
				if _, ok := wants[key]; !ok {
					t.Errorf("%s: unexpected %s finding", key, a.Name)
				}
			}
		})
	}
}

// TestEnvsiteMechanisms checks the mechanism attribution: the constant first
// argument resolves directly, and a computed key resolves through the
// enclosing case clause.
func TestEnvsiteMechanisms(t *testing.T) {
	pkg := loadFixture(t, "envsite")
	result, err := Run([]*Package{pkg}, []string{"envsite"})
	if err != nil {
		t.Fatal(err)
	}
	byMechs := make(map[string]bool)
	for _, d := range result.Diagnostics {
		byMechs[strings.Join(d.Mechanisms, "+")] = true
	}
	for _, want := range []string{
		"app/disk-full",               // named constant
		"app/bounds",                  // string literal
		"app/null-deref+app/bad-init", // case-clause template attribution
	} {
		if !byMechs[want] {
			t.Errorf("no envsite diagnostic attributed to %q (have %v)", want, byMechs)
		}
	}
}

// TestSuppression runs wallclock over the suppress fixture: trailing and
// preceding directives (rule-specific and wildcard) must mark their findings
// suppressed, a mismatched rule must not, and one finding stays active.
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	result, err := Run([]*Package{pkg}, []string{"wallclock"})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, active int
	reasons := make(map[string]bool)
	for _, d := range result.Diagnostics {
		if d.Suppressed {
			suppressed++
			reasons[d.SuppressReason] = true
		} else {
			active++
		}
	}
	if suppressed != 2 {
		t.Errorf("suppressed findings = %d, want 2 (trailing + preceding)", suppressed)
	}
	if active != 2 {
		t.Errorf("active findings = %d, want 2 (wrong-rule directive + unannotated)", active)
	}
	if !reasons["deliberate demo pacing"] || !reasons["covers the next line"] {
		t.Errorf("suppression reasons not carried through: %v", reasons)
	}
	if got := len(activeOf(result)); got != active {
		t.Errorf("Active() = %d findings, want %d", got, active)
	}
}

// TestParseIgnore exercises the directive grammar.
func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		covers map[string]bool
		reason string
	}{
		{"// plain comment", false, nil, ""},
		{"//faultlint:ignore wallclock timing demo", true,
			map[string]bool{"wallclock": true, "rawrand": false}, "timing demo"},
		{"//faultlint:ignore envcheck,retryloop staged", true,
			map[string]bool{"envcheck": true, "retryloop": true, "wallclock": false}, "staged"},
		{"//faultlint:ignore all everything", true,
			map[string]bool{"wallclock": true, "sharedmut": true}, "everything"},
		{"//faultlint:ignore", true, map[string]bool{"anything": true}, ""},
	}
	for _, c := range cases {
		sup, ok := parseIgnore(c.text)
		if ok != c.ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if sup.reason != c.reason {
			t.Errorf("parseIgnore(%q) reason = %q, want %q", c.text, sup.reason, c.reason)
		}
		for rule, want := range c.covers {
			if got := sup.covers(rule); got != want {
				t.Errorf("parseIgnore(%q).covers(%s) = %v, want %v", c.text, rule, got, want)
			}
		}
	}
}
