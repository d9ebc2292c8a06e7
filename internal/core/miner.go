// Package core is the paper's primary contribution as a runnable system: the
// fault-study pipeline. It mines each application's bug source in its native
// form (GNATS tracker, debbugs tracker plus CVS log, mailing-list mbox
// archive), normalizes the reports, applies the study's inclusion bar
// (severe/critical, production releases, high-impact symptoms — or the
// keyword search for the mailing list), narrows to unique faults, classifies
// each by environment dependence, and tallies the per-class tables.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"faultstudy/internal/debbugs"
	"faultstudy/internal/gnats"
	"faultstudy/internal/mbox"
	"faultstudy/internal/report"
	"faultstudy/internal/scrape"
	"faultstudy/internal/taxonomy"
)

// Miner runs the three per-application mining pipelines. The zero value
// mines with a default crawler; Options threads extra crawler options (the
// resilient, possibly chaos-wrapped, HTTP client) into every crawl, and
// Gaps accumulates the URLs each crawl lost after the client exhausted
// recovery. A Miner that returns reports with a non-empty
// Gaps has degraded gracefully: the corpus is partial and says so, instead
// of the whole mine dying on one bad page.
type Miner struct {
	// Options is appended to each pipeline's baseline crawler options.
	Options []scrape.CrawlerOption
	// Gaps collects the gap entries of every crawl this miner ran.
	Gaps []scrape.Gap
}

// newCrawler builds a crawler from the pipeline's baseline options plus the
// miner's injected ones (injected options win, being applied last).
func (m *Miner) newCrawler(base ...scrape.CrawlerOption) *scrape.Crawler {
	return scrape.NewCrawler(append(base, m.Options...)...)
}

// record accumulates the crawl's gaps onto the miner and draws the line
// between degraded and dead: a crawl that fetched *something* proceeds on
// the partial corpus, but a crawl that fetched nothing and lost pages (the
// root itself was unreachable) is a total failure and surfaces as an error.
func (m *Miner) record(what string, pages []*scrape.Page) error {
	m.Gaps = append(m.Gaps, scrape.GapsOf(pages)...)
	cov := scrape.CoverageOf(pages)
	if cov.Fetched == 0 && cov.Gaps > 0 {
		gaps := scrape.GapsOf(pages)
		return fmt.Errorf("core: %s unreachable: fetched 0/%d pages (first gap: %s: %s)",
			what, cov.Attempted, gaps[0].URL, gaps[0].Reason)
	}
	return nil
}

// MineApache crawls a GNATS-style tracker rooted at baseURL (the /bugdb/
// index) and returns the parsed problem reports.
func MineApache(ctx context.Context, baseURL string) ([]*report.Report, error) {
	return (&Miner{}).MineApache(ctx, baseURL)
}

// MineApache is the Apache pipeline under this miner's crawler options.
func (m *Miner) MineApache(ctx context.Context, baseURL string) ([]*report.Report, error) {
	crawler := m.newCrawler(scrape.WithPathFilter("/bugdb/"))
	pages, err := crawler.Crawl(ctx, baseURL+"/bugdb/")
	if err != nil {
		return nil, fmt.Errorf("core: crawl apache tracker: %w", err)
	}
	if err := m.record("apache tracker", pages); err != nil {
		return nil, err
	}
	var reports []*report.Report
	for _, page := range pages {
		if page.Status != 200 || !strings.Contains(page.URL, "/bugdb/pr/") {
			continue
		}
		text := scrape.Text(page.Body)
		start := strings.Index(text, ">Number:")
		if start < 0 {
			continue
		}
		pr, err := gnats.Parse(strings.NewReader(text[start:]))
		if err != nil {
			return nil, fmt.Errorf("core: parse %s: %w", page.URL, err)
		}
		r, err := pr.ToReport()
		if err != nil {
			return nil, fmt.Errorf("core: normalize %s: %w", page.URL, err)
		}
		reports = append(reports, r)
	}
	report.Sort(reports)
	return reports, nil
}

// MineGnome crawls a debbugs-style tracker rooted at baseURL (the /bugs/
// index plus /cvs/log) and returns the parsed reports with fix information
// joined from the CVS log.
func MineGnome(ctx context.Context, baseURL string) ([]*report.Report, error) {
	return (&Miner{}).MineGnome(ctx, baseURL)
}

// MineGnome is the GNOME pipeline under this miner's crawler options.
func (m *Miner) MineGnome(ctx context.Context, baseURL string) ([]*report.Report, error) {
	crawler := m.newCrawler()
	pages, err := crawler.Crawl(ctx, baseURL+"/bugs/")
	if err != nil {
		return nil, fmt.Errorf("core: crawl gnome tracker: %w", err)
	}
	if err := m.record("gnome tracker", pages); err != nil {
		return nil, err
	}
	var (
		bugs    []*debbugs.Bug
		commits []*debbugs.CVSCommit
	)
	for _, page := range pages {
		if page.Status != 200 {
			continue
		}
		text := scrape.Text(page.Body)
		switch {
		case strings.Contains(page.URL, "/cvs/log"):
			cs, err := debbugs.ParseCVSLog(strings.NewReader(text))
			if err != nil {
				return nil, fmt.Errorf("core: parse cvs log: %w", err)
			}
			commits = append(commits, cs...)
		case strings.Contains(page.URL, "/bugs/") && !strings.Contains(page.URL, "/bugs/index/") && !strings.HasSuffix(page.URL, "/bugs/"):
			start := strings.Index(text, "Bug: #")
			if start < 0 {
				continue
			}
			b, err := debbugs.Parse(strings.NewReader(text[start:]))
			if err != nil {
				return nil, fmt.Errorf("core: parse %s: %w", page.URL, err)
			}
			bugs = append(bugs, b)
		}
	}
	var reports []*report.Report
	for _, b := range bugs {
		r, err := b.ToReport(commits)
		if err != nil {
			return nil, fmt.Errorf("core: normalize bug %d: %w", b.Number, err)
		}
		reports = append(reports, r)
	}
	report.Sort(reports)
	return reports, nil
}

// MineMySQL fetches the mailing-list archive rooted at baseURL (the /archive/
// index of monthly mbox files), applies the study's keyword search, threads
// the messages, and returns one report per matching thread.
func MineMySQL(ctx context.Context, baseURL string) ([]*report.Report, error) {
	return (&Miner{}).MineMySQL(ctx, baseURL)
}

// MineMySQL is the MySQL pipeline under this miner's crawler options.
func (m *Miner) MineMySQL(ctx context.Context, baseURL string) ([]*report.Report, error) {
	crawler := m.newCrawler(scrape.WithPathFilter("/archive/"))
	pages, err := crawler.Crawl(ctx, baseURL+"/archive/")
	if err != nil {
		return nil, fmt.Errorf("core: crawl mysql archive: %w", err)
	}
	if err := m.record("mysql archive", pages); err != nil {
		return nil, err
	}
	var msgs []*mbox.Message
	for _, page := range pages {
		if page.Status != 200 || !strings.HasSuffix(page.URL, ".mbox") {
			continue
		}
		ms, err := mbox.Parse(strings.NewReader(page.Body))
		if err != nil {
			return nil, fmt.Errorf("core: parse %s: %w", page.URL, err)
		}
		msgs = append(msgs, ms...)
	}
	threads := mbox.ThreadMessages(msgs)
	serious := mbox.FilterThreads(threads, mbox.DefaultKeywords())
	reports := make([]*report.Report, 0, len(serious))
	for _, th := range serious {
		r, err := ThreadReport(th)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	report.Sort(reports)
	return reports, nil
}

// ThreadReport converts a mailing-list thread into a normalized report: the
// root message is the problem description, the replies are developer
// comments, and the "Server version:" and "How-To-Repeat:" body lines supply
// the release and reproduction fields. Mailing-list reports carry no tracker
// severity; the study admits them by symptom.
func ThreadReport(th *mbox.Thread) (*report.Report, error) {
	if len(th.Messages) == 0 {
		return nil, fmt.Errorf("core: empty thread %q", th.Subject)
	}
	root := th.Messages[0]
	r := &report.Report{
		ID:          root.MessageID,
		App:         taxonomy.AppMySQL,
		Synopsis:    mbox.NormalizeSubject(root.Subject),
		Description: root.Body,
		HowToRepeat: bodyField(root.Body, "How-To-Repeat:"),
		Release:     bodyField(root.Body, "Server version:"),
		Filed:       root.Date,
		Production:  true,
	}
	for _, m := range th.Messages[1:] {
		r.Comments = append(r.Comments, m.Body)
		if fix := bodyField(m.Body, "Fixed for the next release:"); fix != "" {
			r.FixDescription = fix
		}
	}
	r.Symptom = gnats.InferSymptom(r.Synopsis + "\n" + r.Description + "\n" + strings.Join(r.Comments, "\n"))
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("core: thread %q: %w", th.Subject, err)
	}
	return r, nil
}

// bodyField extracts the remainder of the first body line starting with the
// given marker.
func bodyField(body, marker string) string {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), marker); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// sortReports orders reports deterministically by filing date then key.
func sortReports(reports []*report.Report) {
	sort.SliceStable(reports, func(i, j int) bool {
		if !reports[i].Filed.Equal(reports[j].Filed) {
			return reports[i].Filed.Before(reports[j].Filed)
		}
		return reports[i].Key() < reports[j].Key()
	})
}
