package corpusgen

import "testing"

// benchCorpus is the default corpus spec at a fixed seed, the population the
// CORPUS sweep samples.
func benchCorpus() *Corpus { return New(DefaultSpec(), 42) }

func BenchmarkFaultAt(b *testing.B) {
	c := benchCorpus()
	n := c.Spec().Faults
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.FaultAt(i % n)
	}
}

func BenchmarkEpisodeAt(b *testing.B) {
	c := benchCorpus()
	n := c.Spec().Episodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.EpisodeAt(i % n)
	}
}
