package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	m := Mechanism{Key: "httpd/x", App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "d"}
	if err := r.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(m); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register(Mechanism{}); err == nil {
		t.Error("empty key should fail")
	}
	got, ok := r.Lookup("httpd/x")
	if !ok || got.Description != "d" {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup should miss")
	}
}

func TestRegistryKeysSorted(t *testing.T) {
	r := NewRegistry()
	for _, k := range []string{"c/z", "a/x", "b/y"} {
		r.MustRegister(Mechanism{Key: k, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly})
	}
	keys := r.Keys()
	want := []string{"a/x", "b/y", "c/z"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v", keys)
		}
	}
}

func TestRegistryByApp(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Mechanism{Key: "httpd/a", App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly})
	r.MustRegister(Mechanism{Key: "sqldb/b", App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerRace})
	got := r.ByApp(taxonomy.AppMySQL)
	if len(got) != 1 || got[0].Key != "sqldb/b" {
		t.Errorf("ByApp = %+v", got)
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
	r := NewRegistry()
	base := Mechanism{Key: "app/one", App: taxonomy.AppApache, Trigger: taxonomy.TriggerDiskFull, Description: "d"}
	if err := r.Register(base); err != nil {
		t.Fatal(err)
	}

	// Duplicate keys carry the offending key in the error.
	err := r.Register(base)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	if !strings.Contains(err.Error(), "app/one") {
		t.Errorf("duplicate error does not name the key: %v", err)
	}

	// Empty keys are rejected before the map is touched.
	if err := r.Register(Mechanism{App: taxonomy.AppApache}); err == nil {
		t.Error("empty key accepted")
	}
	if got := len(r.Keys()); got != 1 {
		t.Errorf("failed registrations mutated the registry: %d keys", got)
	}

	// MustRegister panics on the same errors and registers otherwise.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegister(duplicate) did not panic")
			}
		}()
		r.MustRegister(base)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegister(empty key) did not panic")
			}
		}()
		r.MustRegister(Mechanism{})
	}()
	r.MustRegister(Mechanism{Key: "app/two", App: taxonomy.AppApache, Trigger: taxonomy.TriggerRace})
	if _, ok := r.Lookup("app/two"); !ok {
		t.Error("MustRegister(fresh key) did not register")
	}
}
