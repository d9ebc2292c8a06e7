package core

import (
	"context"
	"fmt"
	"sync"

	"faultstudy/internal/classify"
	"faultstudy/internal/dedup"
	"faultstudy/internal/report"
	"faultstudy/internal/taxonomy"
)

// Options is the study pipeline's configuration. It has no settings: the
// pipeline always runs the paper configuration.
type Options struct{}

// Classified pairs a canonical report with its classification.
type Classified struct {
	// Report is the canonical bug report.
	Report *report.Report
	// Result is the classifier's decision.
	Result classify.Result
}

// AppResult is the study output for one application.
type AppResult struct {
	// App is the application.
	App taxonomy.Application
	// Raw is the number of reports mined before any filtering (for the
	// mailing list: keyword-matching threads).
	Raw int
	// Qualifying is the count after the study's inclusion bar.
	Qualifying int
	// Duplicates is the number of qualifying reports marked as duplicates.
	Duplicates int
	// Unique is the number of canonical (unique) faults.
	Unique int
	// Counts tallies the unique faults per class — the paper's table row.
	Counts map[taxonomy.FaultClass]int
	// Faults holds the classified canonical reports.
	Faults []Classified
}

// Table renders the result in the layout of the paper's Tables 1–3.
func (r *AppResult) Table() string {
	out := fmt.Sprintf("Classification of faults for %s (%d unique of %d reports):\n", r.App, r.Unique, r.Raw)
	for _, c := range taxonomy.Classes() {
		out += fmt.Sprintf("  %-36s %d\n", c.String(), r.Counts[c])
	}
	return out
}

// Classify runs the post-mining stages over raw reports: inclusion filter,
// duplicate narrowing, and per-fault classification.
func Classify(raw []*report.Report, opts Options) *AppResult {
	res := &AppResult{Raw: len(raw), Counts: make(map[taxonomy.FaultClass]int, 3)}
	if len(raw) > 0 {
		res.App = raw[0].App
	}

	qualifying := report.FilterQualifying(raw)
	res.Qualifying = len(qualifying)
	sortReports(qualifying)

	res.Duplicates = dedup.Mark(qualifying)
	canonical := report.Canonical(qualifying)
	res.Unique = len(canonical)

	classifier := classify.New(classify.Options{})
	for _, r := range canonical {
		decision := classifier.Classify(r)
		res.Counts[decision.Class]++
		res.Faults = append(res.Faults, Classified{Report: r, Result: decision})
	}
	return res
}

// StudyResult is the full three-application study.
type StudyResult struct {
	// Apps holds per-application results keyed by application.
	Apps map[taxonomy.Application]*AppResult
}

// Totals aggregates the per-class counts across applications (the §5.4
// discussion numbers).
func (s *StudyResult) Totals() (counts map[taxonomy.FaultClass]int, total int) {
	counts = make(map[taxonomy.FaultClass]int, 3)
	for _, r := range s.Apps {
		for c, n := range r.Counts {
			counts[c] += n
			total += n
		}
	}
	return counts, total
}

// Sources names the tracker base URLs for a full study run.
type Sources struct {
	// ApacheBase serves the GNATS tracker under /bugdb/.
	ApacheBase string
	// GnomeBase serves the debbugs tracker under /bugs/ and the CVS log
	// under /cvs/log.
	GnomeBase string
	// MySQLBase serves the mbox archive under /archive/.
	MySQLBase string
}

// Study mines all three sources and runs the full pipeline over each — the
// paper's methodology end to end. The three sources are mined and classified
// concurrently, one goroutine each, and Study returns once all three are
// done. If any fails, Study returns the first error in paper order (Apache,
// GNOME, MySQL).
func Study(ctx context.Context, src Sources, opts Options) (*StudyResult, error) {
	sources := [...]struct {
		app  taxonomy.Application
		mine func(context.Context, string) ([]*report.Report, error)
		base string
	}{
		{taxonomy.AppApache, MineApache, src.ApacheBase},
		{taxonomy.AppGnome, MineGnome, src.GnomeBase},
		{taxonomy.AppMySQL, MineMySQL, src.MySQLBase},
	}
	var (
		results [len(sources)]*AppResult
		errs    [len(sources)]error
		wg      sync.WaitGroup
	)
	for i, s := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := s.mine(ctx, s.base)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = Classify(raw, opts)
		}()
	}
	wg.Wait()

	out := &StudyResult{Apps: make(map[taxonomy.Application]*AppResult, len(sources))}
	for i, s := range sources {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.Apps[s.app] = results[i]
	}
	return out, nil
}
