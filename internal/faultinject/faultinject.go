// Package faultinject provides the seeded-bug plumbing shared by the
// simulated applications: a registry describing every bug mechanism, an
// activation set selecting which bugs are live in a given run, and the
// failure error type the applications raise when an active bug fires.
//
// A "mechanism" is one concrete defect from the corpus transplanted into a
// simulated application — e.g. httpd/long-url-overflow is the Apache hash
// overflow on long URLs. The recovery experiments activate one mechanism at a
// time, stage its environmental precondition, drive the triggering workload,
// and measure whether a generic recovery strategy survives the resulting
// failure.
package faultinject

import (
	"errors"
	"fmt"
	"sort"

	"faultstudy/internal/taxonomy"
)

// Mechanism describes one seeded bug.
type Mechanism struct {
	// Key is the registry key, "app/name" (e.g. "sqldb/count-empty").
	Key string
	// App is the simulated application hosting the bug.
	App taxonomy.Application
	// Trigger is the environmental trigger kind (TriggerWorkloadOnly for
	// environment-independent bugs).
	Trigger taxonomy.TriggerKind
	// Description says what the bug does.
	Description string
}

// Class returns the fault class the mechanism's trigger implies.
func (m Mechanism) Class() taxonomy.FaultClass {
	return m.Trigger.DefaultClass()
}

// Registry is a read-only catalogue of mechanisms, held in key order. It
// never changes after NewRegistry builds it, so concurrent reads need no
// lock.
type Registry struct {
	mechs []Mechanism
}

// NewRegistry builds the catalogue of the given mechanism tables. It panics
// on an empty or duplicate key: tables are package-level catalogues whose
// keys are compile-time constants.
func NewRegistry(tables ...[]Mechanism) *Registry {
	var mechs []Mechanism
	for _, t := range tables {
		mechs = append(mechs, t...)
	}
	sort.Slice(mechs, func(i, j int) bool { return mechs[i].Key < mechs[j].Key })
	for i, m := range mechs {
		if m.Key == "" {
			panic("faultinject: mechanism with empty key")
		}
		if i > 0 && mechs[i-1].Key == m.Key {
			panic(fmt.Sprintf("faultinject: mechanism %q registered twice", m.Key))
		}
	}
	return &Registry{mechs: mechs}
}

// Lookup returns the mechanism for key.
func (r *Registry) Lookup(key string) (Mechanism, bool) {
	i := sort.Search(len(r.mechs), func(i int) bool { return r.mechs[i].Key >= key })
	if i < len(r.mechs) && r.mechs[i].Key == key {
		return r.mechs[i], true
	}
	return Mechanism{}, false
}

// Mechanisms returns every mechanism, in key order. The slice is the
// caller's own.
func (r *Registry) Mechanisms() []Mechanism {
	return append([]Mechanism(nil), r.mechs...)
}

// ByApp returns the mechanisms of one application, in key order.
func (r *Registry) ByApp(app taxonomy.Application) []Mechanism {
	var out []Mechanism
	for _, m := range r.mechs {
		if m.App == app {
			out = append(out, m)
		}
	}
	return out
}

// Set is the activation set: which seeded bugs are live. The zero Set has
// everything disabled; applications consult Enabled at each potential fault
// point. A Set is fixed when it is built, so concurrent reads need no lock.
type Set struct {
	enabled map[string]bool
}

// NewSet returns a set with the given keys enabled.
func NewSet(keys ...string) *Set {
	s := &Set{enabled: make(map[string]bool, len(keys))}
	for _, k := range keys {
		s.enabled[k] = true
	}
	return s
}

// Enabled reports whether the keyed bug is live. A nil set disables
// everything, so applications can run fault-free with a nil *Set.
func (s *Set) Enabled(key string) bool {
	if s == nil {
		return false
	}
	return s.enabled[key]
}

// FailureError is the error a simulated application raises when a seeded bug
// fires. It carries the mechanism and the observable symptom so the recovery
// harness can score outcomes.
type FailureError struct {
	// Mechanism is the registry key of the bug that fired.
	Mechanism string
	// Symptom is the observable failure mode.
	Symptom taxonomy.Symptom
	// Msg is the failure message.
	Msg string
	// Cause is the underlying environment error, when one exists.
	Cause error
}

// Error implements error.
func (e *FailureError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("%s: %s (%s): %v", e.Mechanism, e.Msg, e.Symptom, e.Cause)
	}
	return fmt.Sprintf("%s: %s (%s)", e.Mechanism, e.Msg, e.Symptom)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *FailureError) Unwrap() error { return e.Cause }

// Fail builds a FailureError.
func Fail(mechanism string, symptom taxonomy.Symptom, msg string) *FailureError {
	return &FailureError{Mechanism: mechanism, Symptom: symptom, Msg: msg}
}

// FailCause builds a FailureError wrapping an environment error.
func FailCause(mechanism string, symptom taxonomy.Symptom, msg string, cause error) *FailureError {
	return &FailureError{Mechanism: mechanism, Symptom: symptom, Msg: msg, Cause: cause}
}

// AsFailure extracts a FailureError from an error chain.
func AsFailure(err error) (*FailureError, bool) {
	var fe *FailureError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// Op is one unit of workload against an application: a named, retryable
// operation. Recovery strategies re-execute the failing Op after recovering
// the application — the paper's "all requested tasks need to be executed"
// assumption (§7).
type Op struct {
	// Name identifies the operation in traces.
	Name string
	// Do executes the operation against the application the scenario closed
	// over.
	Do func() error
}

// Scenario is an executable reproduction of one corpus fault: the staged
// environmental precondition plus the workload that triggers the seeded bug.
type Scenario struct {
	// Mechanism is the seeded bug the scenario exercises.
	Mechanism string
	// Description says what the scenario stages.
	Description string
	// Stage establishes the environmental precondition (may be nil for
	// workload-only faults).
	Stage func()
	// Ops is the workload; when the bug is active, some Op fails.
	Ops []Op
}
