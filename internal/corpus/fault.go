// Package corpus encodes the study's fault dataset: the 139 unique faults of
// Chandra & Chen (50 Apache, 45 GNOME, 44 MySQL) with their oracle
// classifications.
//
// Every environment-dependent fault (14 nontransient + 12 transient) is
// transcribed from the paper's §5.1–5.3 enumerations, as are the
// representative environment-independent faults the paper describes. The
// remaining environment-independent records — which the paper counts but does
// not individually describe for space — are synthesized deterministically
// from defect-type templates drawn from the same populations the paper cites
// (boundary conditions, missing initialization, bad declarations, pointer
// errors). Release and date assignments follow the shapes of Figures 1–3:
// roughly constant environment-independent share per release, totals growing
// with newer releases (GNOME dipping mid-study, the last MySQL release small
// because it was new).
package corpus

import (
	"fmt"
	"time"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// Fault is one classified fault from the study.
type Fault struct {
	// ID is the stable corpus identifier, e.g. "apache/edt-dns-error".
	ID string `json:"id"`
	// App is the application.
	App taxonomy.Application `json:"app"`
	// Class is the oracle classification (the study authors' judgment).
	Class taxonomy.FaultClass `json:"class"`
	// Trigger is the environmental trigger kind.
	Trigger taxonomy.TriggerKind `json:"trigger"`
	// Component is the module the fault lives in.
	Component string `json:"component"`
	// Release is the release the fault was reported against (Apache, MySQL)
	// or empty for GNOME, which Figure 2 buckets by time instead.
	Release string `json:"release,omitempty"`
	// Filed is the report date.
	Filed time.Time `json:"filed"`
	// Synopsis is the one-line summary.
	Synopsis string `json:"synopsis"`
	// Description is the report body.
	Description string `json:"description"`
	// HowToRepeat is the reproduction recipe.
	HowToRepeat string `json:"howToRepeat"`
	// Fix describes how the underlying bug was fixed, when known.
	Fix string `json:"fix,omitempty"`
	// Severity is the tracker severity.
	Severity taxonomy.Severity `json:"severity"`
	// Symptom is the failure mode.
	Symptom taxonomy.Symptom `json:"symptom"`
	// Mechanism names the concrete seeded-bug mechanism in the simulated
	// applications (internal/faultinject registry key) used by the recovery
	// experiments.
	Mechanism string `json:"mechanism"`
}

// Report converts the fault to a normalized bug report (the canonical report
// the mining pipeline should recover for this fault).
func (f *Fault) Report() *report.Report {
	return &report.Report{
		ID:             f.ID,
		App:            f.App,
		Component:      f.Component,
		Release:        f.Release,
		Synopsis:       f.Synopsis,
		Description:    f.Description,
		HowToRepeat:    f.HowToRepeat,
		FixDescription: f.Fix,
		Severity:       f.Severity,
		Symptom:        f.Symptom,
		Filed:          f.Filed,
		Production:     true,
	}
}

// All returns every fault in the corpus: Apache, then GNOME, then MySQL.
func All() []*Fault {
	out := make([]*Fault, 0, 139)
	out = append(out, Apache()...)
	out = append(out, Gnome()...)
	out = append(out, MySQL()...)
	return out
}

// ByApp returns the faults of one application.
func ByApp(app taxonomy.Application) []*Fault {
	switch app {
	case taxonomy.AppApache:
		return Apache()
	case taxonomy.AppGnome:
		return Gnome()
	case taxonomy.AppMySQL:
		return MySQL()
	default:
		return nil
	}
}

// validateSet checks structural invariants of a per-app fault list; used by
// tests and by the generators' own self-checks.
func validateSet(faults []*Fault) error {
	seen := make(map[string]bool, len(faults))
	for _, f := range faults {
		if f.ID == "" {
			return fmt.Errorf("corpus: fault with empty ID (%q)", f.Synopsis)
		}
		if seen[f.ID] {
			return fmt.Errorf("corpus: duplicate fault ID %s", f.ID)
		}
		seen[f.ID] = true
		if !f.Class.Valid() {
			return fmt.Errorf("corpus: %s has invalid class", f.ID)
		}
		if f.Trigger.DefaultClass() != f.Class {
			return fmt.Errorf("corpus: %s trigger %s implies %s, labeled %s",
				f.ID, f.Trigger, f.Trigger.DefaultClass(), f.Class)
		}
		if f.Mechanism == "" {
			return fmt.Errorf("corpus: %s has no mechanism", f.ID)
		}
		if f.Filed.IsZero() {
			return fmt.Errorf("corpus: %s has no filing date", f.ID)
		}
	}
	return nil
}
