package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

func TestRegistry(t *testing.T) {
	m := Mechanism{Key: "httpd/x", App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "d"}
	r := NewRegistry([]Mechanism{m}, nil)
	got, ok := r.Lookup("httpd/x")
	if !ok || got != m {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	for _, miss := range []string{"nope", "", "httpd/", "httpd/y", "a"} {
		if _, ok := r.Lookup(miss); ok {
			t.Errorf("Lookup(%q) should miss", miss)
		}
	}
	if _, ok := NewRegistry().Lookup("httpd/x"); ok {
		t.Error("the empty registry should miss")
	}
}

// TestRegistryKeysSorted checks that Mechanisms returns key order whatever
// the order of the tables and of their rows.
func TestRegistryKeysSorted(t *testing.T) {
	mech := func(k string) Mechanism {
		return Mechanism{Key: k, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly}
	}
	r := NewRegistry([]Mechanism{mech("c/z"), mech("a/x")}, []Mechanism{mech("b/y")})
	want := []string{"a/x", "b/y", "c/z"}
	got := r.Mechanisms()
	if len(got) != len(want) {
		t.Fatalf("Mechanisms = %+v", got)
	}
	for i, m := range got {
		if m.Key != want[i] {
			t.Fatalf("Mechanisms()[%d] = %s, want %s", i, m.Key, want[i])
		}
		if hit, ok := r.Lookup(m.Key); !ok || hit != m {
			t.Errorf("Lookup(%s) = %+v, %v", m.Key, hit, ok)
		}
	}

	// The returned slice is the caller's: editing it leaves the registry as
	// it was.
	got[0] = mech("z/z")
	got = append(got[:1], got[2:]...)
	if again := r.Mechanisms(); len(again) != 3 || again[0].Key != "a/x" || again[1].Key != "b/y" {
		t.Errorf("mutating Mechanisms() changed the registry: %+v", again)
	}
	if _, ok := r.Lookup("z/z"); ok {
		t.Error("mutating Mechanisms() added a key")
	}
}

func TestRegistryByApp(t *testing.T) {
	r := NewRegistry([]Mechanism{
		{Key: "sqldb/d", App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerRace},
		{Key: "httpd/a", App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly},
		{Key: "sqldb/b", App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerRace},
	}, []Mechanism{
		{Key: "sqldb/c", App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerDiskFull},
	})
	got := r.ByApp(taxonomy.AppMySQL)
	want := []string{"sqldb/b", "sqldb/c", "sqldb/d"}
	if len(got) != len(want) {
		t.Fatalf("ByApp = %+v", got)
	}
	for i, m := range got {
		if m.Key != want[i] {
			t.Errorf("ByApp()[%d] = %s, want %s", i, m.Key, want[i])
		}
	}
	if got := r.ByApp(taxonomy.AppGnome); len(got) != 0 {
		t.Errorf("ByApp(gnome) = %+v, want none", got)
	}
}

func TestMechanismClass(t *testing.T) {
	m := Mechanism{Trigger: taxonomy.TriggerRace}
	if m.Class() != taxonomy.ClassEnvDependentTransient {
		t.Errorf("Class = %v", m.Class())
	}
}

func TestSet(t *testing.T) {
	s := NewSet("a", "b")
	if !s.Enabled("a") || !s.Enabled("b") || s.Enabled("c") {
		t.Error("initial enablement wrong")
	}
	if (&Set{}).Enabled("a") {
		t.Error("the zero Set must disable everything")
	}
}

func TestNilSetDisablesEverything(t *testing.T) {
	var s *Set
	if s.Enabled("anything") {
		t.Error("nil set must disable all faults")
	}
}

func TestFailureError(t *testing.T) {
	fe := Fail("httpd/x", taxonomy.SymptomCrash, "boom")
	if fe.Error() == "" {
		t.Error("empty error text")
	}
	got, ok := AsFailure(fmt.Errorf("wrapped: %w", fe))
	if !ok || got.Mechanism != "httpd/x" {
		t.Errorf("AsFailure = %+v, %v", got, ok)
	}
	if _, ok := AsFailure(errors.New("plain")); ok {
		t.Error("plain error must not convert")
	}
}

func TestFailureErrorUnwrap(t *testing.T) {
	cause := errors.New("disk full")
	fe := FailCause("httpd/fs-full", taxonomy.SymptomError, "write failed", cause)
	if !errors.Is(fe, cause) {
		t.Error("Unwrap chain broken")
	}
	if fe.Error() == "" {
		t.Error("empty error text")
	}
}

func TestRegistryErrorPaths(t *testing.T) {
	base := Mechanism{Key: "app/one", App: taxonomy.AppApache, Trigger: taxonomy.TriggerDiskFull, Description: "d"}
	panicText := func(tables ...[]Mechanism) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		NewRegistry(tables...)
		return ""
	}

	// A duplicate key panics naming the key, within one table or across two.
	if msg := panicText([]Mechanism{base, base}); !strings.Contains(msg, "app/one") {
		t.Errorf("duplicate within a table: panic %q does not name the key", msg)
	}
	other := Mechanism{Key: "app/two", App: taxonomy.AppApache, Trigger: taxonomy.TriggerRace}
	if msg := panicText([]Mechanism{base, other}, []Mechanism{other}); !strings.Contains(msg, "app/two") {
		t.Errorf("duplicate across tables: panic %q does not name the key", msg)
	}

	// An empty key panics.
	if msg := panicText([]Mechanism{base}, []Mechanism{{App: taxonomy.AppApache}}); !strings.Contains(msg, "empty key") {
		t.Errorf("empty key: panic %q", msg)
	}

	// Distinct keys build.
	if msg := panicText([]Mechanism{base}, []Mechanism{other}); msg != "<nil>" {
		t.Errorf("distinct keys panicked: %s", msg)
	}
}
