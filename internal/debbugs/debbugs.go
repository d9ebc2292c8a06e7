// Package debbugs parses debbugs-style bug logs — the format of the GNOME
// bug tracker (bugs.gnome.org) the study mined. A debbugs log is a control
// header (Package:, Severity:, Version:, Tags:, Date:) followed by the
// original submission and the follow-up messages, each introduced by a
// "Message #N" separator line. Fix information arrives either in follow-ups
// or in a linked CVS commit record (cvs.gnome.org in the study), which this
// package accepts as an optional supplement.
package debbugs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"faultstudy/internal/gnats"
	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// Bug is a parsed debbugs log.
type Bug struct {
	// Number is the bug number.
	Number int
	// Package is the GNOME module (panel, gnome-pim, gnumeric, gmc, or a
	// core library).
	Package string
	// Severity is the raw severity field.
	Severity string
	// Version is the reported module version.
	Version string
	// Tags holds the debbugs tags.
	Tags []string
	// Date is the submission date.
	Date time.Time
	// Submission is the original report text. The first paragraph serves as
	// the synopsis if no Subject line is present.
	Subject string
	// Body is the submission body.
	Body string
	// FollowUps holds the follow-up message bodies in order.
	FollowUps []string
}

// Parse reads one debbugs bug log.
func Parse(r io.Reader) (*Bug, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)

	b := &Bug{}
	var (
		inHeader = true
		sections [][]string
		current  []string
	)
	for sc.Scan() {
		line := sc.Text()
		if inHeader {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" {
				inHeader = false
				continue
			}
			key, val, ok := strings.Cut(trimmed, ":")
			if !ok {
				return nil, fmt.Errorf("debbugs: malformed header line %q", line)
			}
			val = strings.TrimSpace(val)
			switch strings.ToLower(key) {
			case "bug":
				n, err := strconv.Atoi(strings.TrimPrefix(val, "#"))
				if err != nil {
					return nil, fmt.Errorf("debbugs: bad bug number %q: %w", val, err)
				}
				b.Number = n
			case "package":
				b.Package = val
			case "severity":
				b.Severity = val
			case "version":
				b.Version = val
			case "tags":
				b.Tags = strings.Fields(val)
			case "subject":
				b.Subject = val
			case "date":
				for _, layout := range []string{time.RFC1123Z, time.RFC1123, "2006-01-02", "Mon, 2 Jan 2006 15:04:05 -0700"} {
					if t, err := time.Parse(layout, val); err == nil {
						b.Date = t.UTC()
						break
					}
				}
			}
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(line), "Message #") {
			sections = append(sections, current)
			current = nil
			continue
		}
		current = append(current, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("debbugs: scan: %w", err)
	}
	sections = append(sections, current)

	if b.Number == 0 {
		return nil, fmt.Errorf("debbugs: missing Bug header")
	}
	if len(sections) > 0 {
		b.Body = strings.TrimSpace(strings.Join(sections[0], "\n"))
	}
	for _, s := range sections[1:] {
		if text := strings.TrimSpace(strings.Join(s, "\n")); text != "" {
			b.FollowUps = append(b.FollowUps, text)
		}
	}
	if b.Subject == "" {
		// First non-empty line of the body doubles as the synopsis.
		for _, l := range strings.Split(b.Body, "\n") {
			if t := strings.TrimSpace(l); t != "" {
				b.Subject = t
				break
			}
		}
	}
	return b, nil
}

// CVSCommit is a fix record from the module's CVS history — the study's
// second GNOME source (cvs.gnome.org).
type CVSCommit struct {
	// Revision is the CVS revision string.
	Revision string
	// Module is the module path.
	Module string
	// Log is the commit log message.
	Log string
	// BugNumber is the bug the commit claims to fix (0 when unstated).
	BugNumber int
}

// ParseCVSLog parses "cvs log"-style entries, extracting per-revision log
// messages and any "Fixes bug #N" references.
func ParseCVSLog(r io.Reader) ([]*CVSCommit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var (
		commits []*CVSCommit
		cur     *CVSCommit
		module  string
		logs    []string
	)
	flush := func() {
		if cur == nil {
			return
		}
		cur.Log = strings.TrimSpace(strings.Join(logs, "\n"))
		cur.Module = module
		cur.BugNumber = extractBugNumber(cur.Log)
		commits = append(commits, cur)
		cur = nil
		logs = nil
	}
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "RCS file:"):
			flush()
			module = strings.TrimSpace(strings.TrimPrefix(trimmed, "RCS file:"))
		case strings.HasPrefix(trimmed, "revision "):
			flush()
			cur = &CVSCommit{Revision: strings.TrimSpace(strings.TrimPrefix(trimmed, "revision"))}
		case trimmed == "----------------------------" || strings.HasPrefix(trimmed, "===="):
			flush()
		case cur != nil && !strings.HasPrefix(trimmed, "date:"):
			logs = append(logs, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("debbugs: cvs log scan: %w", err)
	}
	flush()
	return commits, nil
}

func extractBugNumber(log string) int {
	lower := strings.ToLower(log)
	for _, marker := range []string{"fixes bug #", "fix bug #", "bug #", "closes #"} {
		idx := strings.Index(lower, marker)
		if idx < 0 {
			continue
		}
		rest := lower[idx+len(marker):]
		end := 0
		for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
			end++
		}
		if end > 0 {
			if n, err := strconv.Atoi(rest[:end]); err == nil {
				return n
			}
		}
	}
	return 0
}

// gnomeProductionVersion reports whether the version string names a released
// (non-CVS, non-pre) GNOME module version.
func gnomeProductionVersion(v string) bool {
	v = strings.ToLower(v)
	if v == "" {
		return true // GNOME reports frequently omit versions; the tracker covers releases
	}
	for _, marker := range []string{"cvs", "pre", "alpha", "beta", "snapshot"} {
		if strings.Contains(v, marker) {
			return false
		}
	}
	return true
}

// ToReport converts a bug (plus any matching CVS fix commits) to the
// normalized schema.
func (b *Bug) ToReport(fixes []*CVSCommit) (*report.Report, error) {
	sev, err := taxonomy.ParseSeverity(b.Severity)
	if err != nil {
		sev = taxonomy.SeverityUnknown
	}
	var fix string
	for _, c := range fixes {
		if c.BugNumber == b.Number {
			fix = c.Log
			break
		}
	}
	r := &report.Report{
		ID:             fmt.Sprintf("GB-%d", b.Number),
		App:            taxonomy.AppGnome,
		Component:      b.Package,
		Release:        b.Version,
		Synopsis:       b.Subject,
		Description:    b.Body,
		HowToRepeat:    extractHowToRepeat(b.Body),
		Comments:       append([]string(nil), b.FollowUps...),
		FixDescription: fix,
		Severity:       sev,
		Symptom:        gnats.InferSymptom(b.Subject + "\n" + b.Body),
		Filed:          b.Date,
		Production:     gnomeProductionVersion(b.Version),
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("debbugs bug %d: %w", b.Number, err)
	}
	return r, nil
}

// extractHowToRepeat pulls a reproduction recipe out of free-form GNOME
// report bodies: the text following a "To reproduce" / "Steps to reproduce" /
// "How to repeat" marker, or numbered step lines.
func extractHowToRepeat(body string) string {
	lower := strings.ToLower(body)
	for _, marker := range []string{"steps to reproduce", "to reproduce", "how to repeat", "how to reproduce"} {
		idx := strings.Index(lower, marker)
		if idx < 0 {
			continue
		}
		rest := body[idx:]
		if nl := strings.Index(rest, "\n"); nl >= 0 {
			rest = rest[nl+1:]
		} else {
			rest = ""
		}
		// Take until the first blank line after the steps.
		if end := strings.Index(rest, "\n\n"); end >= 0 {
			rest = rest[:end]
		}
		return strings.TrimSpace(rest)
	}
	// Fall back to numbered steps anywhere in the body.
	var steps []string
	for _, l := range strings.Split(body, "\n") {
		t := strings.TrimSpace(l)
		if len(t) >= 2 && t[0] >= '1' && t[0] <= '9' && (t[1] == '.' || t[1] == ')') {
			steps = append(steps, t)
		}
	}
	return strings.Join(steps, "\n")
}
