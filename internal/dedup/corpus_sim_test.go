package dedup

import (
	"testing"

	"faultstudy/internal/corpus"
)

// The corpus's synthesized faults share defect-type templates; if two
// distinct faults' texts were near-duplicates, the mining pipeline would
// merge them and under-count the tables. Guard the margin.
func TestDistinctCorpusFaultsStayBelowThreshold(t *testing.T) {
	faults := corpus.All()
	texts := make([]string, len(faults))
	for i, f := range faults {
		texts[i] = f.Report().Text()
	}
	worst := 0.0
	var worstPair [2]string
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			if faults[i].App != faults[j].App {
				continue
			}
			if sim := similarity(texts[i], texts[j]); sim > worst {
				worst = sim
				worstPair = [2]string{faults[i].ID, faults[j].ID}
			}
		}
	}
	t.Logf("worst intra-app cross-fault similarity %.3f (%s vs %s)", worst, worstPair[0], worstPair[1])
	if worst >= 0.55 {
		t.Errorf("faults %s and %s are %.2f similar; too close to the dedup threshold 0.6",
			worstPair[0], worstPair[1], worst)
	}
}
