package corpusgen

import (
	"context"
	"net/http/httptest"
	"testing"

	"faultstudy/internal/scrape"
)

// benchCorpus is the default corpus spec at a fixed seed, the population the
// CORPUS sweep samples.
func benchCorpus() *Corpus { return New(DefaultSpec(), 42) }

func BenchmarkFaultAt(b *testing.B) {
	c := benchCorpus()
	n := c.spec.Faults
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.FaultAt(i % n)
	}
}

func BenchmarkEpisodeAt(b *testing.B) {
	c := benchCorpus()
	n := c.spec.Episodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.EpisodeAt(i % n)
	}
}

// BenchmarkCrawlSite crawls the CORPUS sweep's default site (50,000 faults,
// 400-page cap) over loopback: site rendering, fetching and link expansion.
func BenchmarkCrawlSite(b *testing.B) {
	spec := DefaultSpec()
	spec.Faults = 50000
	spec.Episodes = 0
	site := NewSite(New(spec, 42))
	srv := httptest.NewServer(site)
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr := scrape.NewCrawler(
			scrape.WithMaxPages(400),
			scrape.WithPathFilter("/gen"),
			scrape.WithClient(srv.Client()),
		)
		pages, err := cr.Crawl(context.Background(), srv.URL+"/gen/")
		if err != nil || len(pages) != 400 {
			b.Fatalf("crawl: %d pages, err %v", len(pages), err)
		}
	}
}
