package bench

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"faultstudy"
	"faultstudy/internal/experiment"
)

// tinyWorkloads are the four workloads at sizes a unit test can run,
// with the units one iteration must report.
func tinyWorkloads() map[string]struct {
	w     Workload
	units int
} {
	return map[string]struct {
		w     Workload
		units int
	}{
		// 50 faults + 5 episodes + the 139 curated baseline runs. The drift
		// gate is statistical and needs the full population, so it is opened.
		"corpus": {corpusWorkload(experiment.CorpusConfig{Spec: "faults=50;episodes=5", SiteFaults: 200, CrawlPages: 10, DriftBand: 100}), 50 + 5 + 139},
		// 40 arms of 60 arrivals each.
		"serve": {serveWorkload(experiment.ServeConfig{Users: 30, Requests: 60}), 40 * 60},
		// 186 MREBOOT arms + one 12-arm DURABLE sweep.
		"recover": {recoverWorkload(1), 186 + 12},
		"mine":    {mineWorkload(), 0}, // raw reports vary with the seed
	}
}

// TestWorkloadsSmoke runs each workload through Measure — set-up,
// the 1-vs-2-worker determinism pass, one timed iteration — and checks the
// unit counts and that nothing failed.
func TestWorkloadsSmoke(t *testing.T) {
	for name, tc := range tinyWorkloads() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ready := false
			m, err := Measure(tc.w, Config{Seed: 42, MinIters: 1, Ready: func() { ready = true }})
			if err != nil {
				t.Fatal(err)
			}
			if !ready || m.Failed != 0 || m.Attempted != 3 || len(m.Timings) != 1 {
				t.Fatalf("ready %v, %d failed of %d attempted, %d timings: %v", ready, m.Failed, m.Attempted, len(m.Timings), m.Errors)
			}
			units := m.Timings[0].Units
			if name == "mine" {
				if units < 139 {
					t.Errorf("mine mined %d raw reports, fewer than its 139 faults", units)
				}
			} else if units != tc.units {
				t.Errorf("%d units, want %d", units, tc.units)
			}
			if len(m.Digests["report"]) != 64 {
				t.Errorf("no report digest: %v", m.Digests)
			}
		})
	}
}

// fakeWorkload fails at one seed and, when workerDependent, writes output
// that differs between worker counts.
func fakeWorkload(failSeed int64, workerDependent bool) Workload {
	return Workload{Name: "fake", Unit: "things", Setup: func() (Body, func(), error) {
		body := func(it *Iteration) (Work, error) {
			out := "same"
			if workerDependent {
				out = fmt.Sprint(it.Workers)
			}
			if _, err := io.WriteString(it.Out.Report, out); err != nil {
				return Work{}, err
			}
			if it.Seed == failSeed {
				return Work{}, errors.New("forced failure")
			}
			return Work{Units: 7}, nil
		}
		return body, func() {}, nil
	}}
}

func TestForcedFailureCountsInFailedRatio(t *testing.T) {
	// Determinism pass at seed 3 twice, then timed seeds 3, 4, 5, 6.
	m, err := Measure(fakeWorkload(5, false), Config{Seed: 3, MinIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Attempted != 6 || m.Failed != 1 || len(m.Timings) != 3 {
		t.Fatalf("%d failed of %d attempted, %d timings", m.Failed, m.Attempted, len(m.Timings))
	}
	if !strings.Contains(m.Errors[0], "seed 5: forced failure") {
		t.Errorf("errors = %v", m.Errors)
	}
	if got := ratio(float64(m.Failed), float64(m.Attempted)); got != 1.0/6 {
		t.Errorf("failed_ratio = %v", got)
	}
}

func TestDeterminismFailureCounts(t *testing.T) {
	m, err := Measure(fakeWorkload(-1, true), Config{Seed: 1, MinIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed != 1 || !strings.Contains(m.Errors[0], "report differs between 1 and 2 workers") {
		t.Errorf("%d failed: %v", m.Failed, m.Errors)
	}
}

func TestCorpusSeedSkipsGoodnessOfFitFalseAlarms(t *testing.T) {
	// Seed 84's default population fails the app-mix chi-squared test at
	// alpha 0.001 — a correct sampler's expected false alarm.
	if testing.Short() {
		t.Skip("samples two 5,000-fault populations")
	}
	got, err := corpusSeed("", 84)
	if err != nil {
		t.Fatal(err)
	}
	if got != 85 {
		t.Errorf("corpusSeed(84) = %d, want 85", got)
	}
}

func TestMineCheckRejectsWrongTables(t *testing.T) {
	res := &faultstudy.StudyResult{Apps: map[faultstudy.Application]*faultstudy.AppStudyResult{}}
	for _, app := range studyApps {
		counts := map[faultstudy.FaultClass]int{}
		for class, n := range experiment.PaperTables[app] {
			counts[class] = n
		}
		res.Apps[app] = &faultstudy.AppStudyResult{App: app, Unique: paperUnique[app], Counts: counts}
	}
	if err := (studyReport{res}).check(); err != nil {
		t.Fatalf("the paper's own tables rejected: %v", err)
	}
	res.Apps[faultstudy.AppGnome].Counts[faultstudy.ClassEnvDependentTransient]--
	if err := (studyReport{res}).check(); err == nil {
		t.Error("a GNOME EDT count one short of Table 2 accepted")
	}
}
