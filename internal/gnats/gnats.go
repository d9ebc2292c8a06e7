// Package gnats parses GNU GNATS problem reports — the format of the Apache
// bug database (bugs.apache.org) the study mined. A GNATS PR is a header
// block followed by named multi-line sections introduced by ">Field:" lines
// (>Synopsis:, >Severity:, >Description:, >How-To-Repeat:, ...), with an
// audit trail of developer comments.
package gnats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// PR is a parsed GNATS problem report.
type PR struct {
	// Number is the PR number.
	Number int
	// Category is the GNATS category (e.g. "general", "mod_cgi").
	Category string
	// Synopsis is the one-line summary.
	Synopsis string
	// Severity is the raw >Severity: field.
	Severity string
	// Class is the GNATS class field (sw-bug, doc-bug, ...).
	Class string
	// Release is the raw >Release: field.
	Release string
	// Environment is the >Environment: section.
	Environment string
	// Description is the >Description: section.
	Description string
	// HowToRepeat is the >How-To-Repeat: section.
	HowToRepeat string
	// Fix is the >Fix: section.
	Fix string
	// AuditTrail holds the developer comments from the audit trail.
	AuditTrail []string
	// Arrival is the arrival date.
	Arrival time.Time
	// State is the GNATS state (open, analyzed, closed, ...).
	State string
}

// sectionOrder preserves unknown-section tolerance: any ">Name:" line starts
// a new section whether or not we use it.
var knownSections = map[string]bool{
	"Number": true, "Category": true, "Synopsis": true, "Confidential": true,
	"Severity": true, "Priority": true, "Responsible": true, "State": true,
	"Class": true, "Submitter-Id": true, "Arrival-Date": true,
	"Originator": true, "Organization": true, "Release": true,
	"Environment": true, "Description": true, "How-To-Repeat": true,
	"Fix": true, "Audit-Trail": true, "Unformatted": true,
}

var arrivalLayouts = []string{
	"Mon Jan 2 15:04:05 MST 2006",
	"Mon Jan  2 15:04:05 MST 2006",
	time.RFC1123,
	"2006-01-02",
}

// Parse reads one GNATS problem report.
func Parse(r io.Reader) (*PR, error) {
	sections := make(map[string][]string)
	var current string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ">") {
			if idx := strings.Index(line, ":"); idx > 1 {
				name := line[1:idx]
				if knownSections[name] || !strings.ContainsAny(name, " \t") {
					current = name
					rest := strings.TrimSpace(line[idx+1:])
					if rest != "" {
						sections[current] = append(sections[current], rest)
					}
					continue
				}
			}
		}
		if current != "" {
			sections[current] = append(sections[current], line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gnats: scan: %w", err)
	}
	if len(sections) == 0 {
		return nil, fmt.Errorf("gnats: no sections found")
	}

	get := func(name string) string {
		return strings.TrimSpace(strings.Join(sections[name], "\n"))
	}

	pr := &PR{
		Category:    get("Category"),
		Synopsis:    get("Synopsis"),
		Severity:    get("Severity"),
		Class:       get("Class"),
		Release:     get("Release"),
		Environment: get("Environment"),
		Description: get("Description"),
		HowToRepeat: get("How-To-Repeat"),
		Fix:         get("Fix"),
		State:       get("State"),
	}
	numText := get("Number")
	if numText == "" {
		return nil, fmt.Errorf("gnats: missing >Number: field")
	}
	n, err := strconv.Atoi(numText)
	if err != nil {
		return nil, fmt.Errorf("gnats: bad PR number %q: %w", numText, err)
	}
	pr.Number = n
	if ad := get("Arrival-Date"); ad != "" {
		for _, layout := range arrivalLayouts {
			if t, perr := time.Parse(layout, ad); perr == nil {
				pr.Arrival = t.UTC()
				break
			}
		}
	}
	pr.AuditTrail = parseAuditTrail(sections["Audit-Trail"])
	return pr, nil
}

// parseAuditTrail splits the audit trail into individual comments. Comments
// are delimited by "State-Changed-*" or "Comment-Added-*" stanza markers;
// free text between markers attaches to the preceding comment.
func parseAuditTrail(lines []string) []string {
	var (
		comments []string
		cur      []string
	)
	flush := func() {
		text := strings.TrimSpace(strings.Join(cur, "\n"))
		if text != "" {
			comments = append(comments, text)
		}
		cur = nil
	}
	for _, l := range lines {
		trimmed := strings.TrimSpace(l)
		if strings.HasPrefix(trimmed, "State-Changed-") || strings.HasPrefix(trimmed, "Comment-Added-") {
			if strings.HasPrefix(trimmed, "State-Changed-From-To:") ||
				strings.HasPrefix(trimmed, "Comment-Added-By:") {
				flush()
			}
			continue // drop stanza metadata lines
		}
		cur = append(cur, l)
	}
	flush()
	return comments
}

// productionRelease reports whether a raw GNATS release string names a
// production Apache version (no alpha/beta/dev suffix).
func productionRelease(rel string) bool {
	rel = strings.ToLower(rel)
	if rel == "" {
		return false
	}
	for _, marker := range []string{"alpha", "beta", "-dev", "snapshot", "cvs"} {
		if strings.Contains(rel, marker) {
			return false
		}
	}
	return true
}

// ToReport converts a PR to the normalized report schema.
func (pr *PR) ToReport() (*report.Report, error) {
	sev, err := taxonomy.ParseSeverity(pr.Severity)
	if err != nil {
		sev = taxonomy.SeverityUnknown
	}
	r := &report.Report{
		ID:          fmt.Sprintf("PR-%d", pr.Number),
		App:         taxonomy.AppApache,
		Component:   pr.Category,
		Release:     strings.TrimSpace(pr.Release),
		Synopsis:    pr.Synopsis,
		Description: pr.Description,
		HowToRepeat: pr.HowToRepeat,
		Environment: pr.Environment,
		Comments:    pr.AuditTrail,
		FixDescription: func() string {
			if pr.Fix != "" && !strings.EqualFold(pr.Fix, "unknown") {
				return pr.Fix
			}
			return ""
		}(),
		Severity:   sev,
		Symptom:    InferSymptom(pr.Synopsis + "\n" + pr.Description + "\n" + pr.HowToRepeat),
		Filed:      pr.Arrival,
		Production: productionRelease(pr.Release),
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("gnats PR %d: %w", pr.Number, err)
	}
	return r, nil
}

// InferSymptom derives the failure mode from report text, preferring the most
// severe mention. Shared by the debbugs converter.
func InferSymptom(text string) taxonomy.Symptom {
	t := strings.ToLower(text)
	switch {
	case containsAny(t, "segfault", "segmentation", "core dump", "dumps core",
		"sigsegv", "crash", "dies", "died", "aborts", "assertion", "corrupt",
		"kills", "killed"):
		return taxonomy.SymptomCrash
	case containsAny(t, "security", "exploit", "vulnerab"):
		return taxonomy.SymptomSecurity
	case containsAny(t, "hang", "freez", "stops responding", "deadlock",
		"spins", "stuck", "stall"):
		return taxonomy.SymptomHang
	case containsAny(t, "error", "fail", "wrong", "incorrect",
		"refuses", "garbage", "runs out", "cannot store", "exhaust"):
		return taxonomy.SymptomError
	default:
		return taxonomy.SymptomUnknown
	}
}

func containsAny(haystack string, needles ...string) bool {
	for _, n := range needles {
		if strings.Contains(haystack, n) {
			return true
		}
	}
	return false
}
