// Package report defines the normalized bug-report schema shared by every
// fault source in the study. The GNATS, debbugs, and mbox parsers each emit
// Report values; downstream stages (filtering, deduplication, classification)
// operate only on this schema.
//
// The schema mirrors the fields the paper relies on (§4): symptoms, the
// results of the fault, the operating environment and workload that induce it
// — in particular the "How To Repeat" field — developer comments, and fix
// information.
package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"faultstudy/internal/taxonomy"
)

// Report is a normalized bug report from any of the study's sources.
type Report struct {
	// ID is the source-scoped identifier: a GNATS PR number, a debbugs bug
	// number, or a mail Message-ID.
	ID string `json:"id"`
	// App is the application the report is filed against.
	App taxonomy.Application `json:"app"`
	// Component is the module within the application (e.g. "mod_cgi",
	// "gnumeric", "mysqld"), when known.
	Component string `json:"component,omitempty"`
	// Release is the application release the fault was observed on
	// (e.g. "1.3.4"). Empty when the report does not say.
	Release string `json:"release,omitempty"`
	// Synopsis is the one-line summary.
	Synopsis string `json:"synopsis"`
	// Description is the full problem description.
	Description string `json:"description"`
	// HowToRepeat is the reporter-supplied reproduction recipe; the key field
	// for classification.
	HowToRepeat string `json:"howToRepeat,omitempty"`
	// Environment is the reporter's operating environment description
	// (OS, libraries, hardware).
	Environment string `json:"environment,omitempty"`
	// Comments holds developer follow-ups, including statements about
	// reproducibility and the eventual fix.
	Comments []string `json:"comments,omitempty"`
	// FixDescription records how the underlying bug was fixed, when known
	// (from the audit trail or the linked CVS commit).
	FixDescription string `json:"fixDescription,omitempty"`
	// Severity is the tracker-assigned severity.
	Severity taxonomy.Severity `json:"severity"`
	// Symptom is the observable failure mode.
	Symptom taxonomy.Symptom `json:"symptom"`
	// Filed is when the report was submitted.
	Filed time.Time `json:"filed"`
	// Production reports whether the release is a production (non-beta)
	// version. The study only counts faults on production versions.
	Production bool `json:"production"`
	// DuplicateOf, when non-empty, names the canonical report this one
	// duplicates; set by the dedup stage.
	DuplicateOf string `json:"duplicateOf,omitempty"`
}

// Validate checks the invariants downstream stages rely on.
func (r *Report) Validate() error {
	if r == nil {
		return errors.New("report: nil report")
	}
	var problems []string
	if strings.TrimSpace(r.ID) == "" {
		problems = append(problems, "empty ID")
	}
	if r.App == taxonomy.AppUnknown {
		problems = append(problems, "unknown application")
	}
	if strings.TrimSpace(r.Synopsis) == "" && strings.TrimSpace(r.Description) == "" {
		problems = append(problems, "no synopsis or description")
	}
	if len(problems) > 0 {
		return fmt.Errorf("report %s: %s", r.ID, strings.Join(problems, "; "))
	}
	return nil
}

// Text returns the concatenated free text of the report in a stable order,
// used by the deduplicator and classifier.
func (r *Report) Text() string {
	var b strings.Builder
	b.Grow(len(r.Synopsis) + len(r.Description) + len(r.HowToRepeat) + len(r.Environment) + 64)
	for _, part := range []string{r.Synopsis, r.Description, r.HowToRepeat, r.Environment, r.FixDescription} {
		if part == "" {
			continue
		}
		b.WriteString(part)
		b.WriteByte('\n')
	}
	for _, c := range r.Comments {
		b.WriteString(c)
		b.WriteByte('\n')
	}
	return b.String()
}

// Qualifies reports whether the report meets the study's inclusion bar
// (paper §4): a high-impact symptom, severe-or-critical severity, and a
// production release. Sources without severity fields (the MySQL mailing
// list) pass the severity check when Severity is unknown but the symptom is
// high impact.
func (r *Report) Qualifies() bool {
	if !r.Symptom.HighImpact() {
		return false
	}
	if !r.Production {
		return false
	}
	if r.Severity == taxonomy.SeverityUnknown {
		return true
	}
	return r.Severity.Qualifies()
}

// Key returns a stable sort key (app, then ID).
func (r *Report) Key() string {
	return r.App.String() + "/" + r.ID
}

// Sort orders reports by application then ID, in place.
func Sort(reports []*Report) {
	sort.Slice(reports, func(i, j int) bool {
		return reports[i].Key() < reports[j].Key()
	})
}

// FilterQualifying returns the subset of reports that meet the study's
// inclusion bar, preserving order.
func FilterQualifying(reports []*Report) []*Report {
	out := make([]*Report, 0, len(reports))
	for _, r := range reports {
		if r.Qualifies() {
			out = append(out, r)
		}
	}
	return out
}

// Canonical returns the subset of reports that are not marked as duplicates,
// preserving order.
func Canonical(reports []*Report) []*Report {
	out := make([]*Report, 0, len(reports))
	for _, r := range reports {
		if r.DuplicateOf == "" {
			out = append(out, r)
		}
	}
	return out
}
