package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

// scopeDump renders everything a SCOPE run produces: the report and the
// telemetry trace, timeline, and metric dumps.
func scopeDump(t *testing.T, workers int) string {
	t.Helper()
	tel := NewTelemetry()
	rep, err := RunScope(ScopeConfig{Seed: 42, Telemetry: tel, Workers: workers})
	if err != nil {
		t.Fatalf("RunScope(workers=%d): %v", workers, err)
	}
	var b bytes.Buffer
	b.WriteString(rep.String())
	if err := tel.WriteTrace(&b); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := tel.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestScopeWorkerInvariance is the determinism contract: every report,
// trace, timeline, and metrics dump of the SCOPE experiment is
// byte-identical at 1, 2, and 8 workers.
func TestScopeWorkerInvariance(t *testing.T) {
	serial := scopeDump(t, 1)
	for _, workers := range []int{2, 8} {
		if got := scopeDump(t, workers); got != serial {
			t.Fatalf("SCOPE output at %d workers differs from serial run", workers)
		}
	}
}

// TestScopeGate runs the experiment once with telemetry attached and asserts
// the CI gate plus the mechanics behind it: one scorecard per registered
// mechanism, one probe arm per (mechanism, rung) cell, the documented metric
// family, and planned-rung stamping on the recorded episodes.
func TestScopeGate(t *testing.T) {
	tel := NewTelemetry()
	rep, err := RunScope(ScopeConfig{Seed: 42, Telemetry: tel, Workers: 0})
	if err != nil {
		t.Fatalf("RunScope: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	mechs := Registry().Mechanisms()
	if len(rep.Mechs) != len(mechs) {
		t.Fatalf("scorecards = %d, want one per mechanism (%d)", len(rep.Mechs), len(mechs))
	}
	if len(rep.Arms) != len(mechs)*len(recovery.Rungs()) {
		t.Fatalf("arms = %d, want mechanisms x rungs", len(rep.Arms))
	}
	if rep.Sites == 0 {
		t.Fatal("no static fault-raise sites analyzed")
	}

	recall := rep.ClassRecall(taxonomy.ClassEnvIndependent, true)
	if float64(recall.Hits) < scopeClassRecallFloor*float64(recall.N) {
		t.Fatalf("class recall %d/%d below gate floor", recall.Hits, recall.N)
	}
	var cured, probed int
	for _, a := range rep.Arms {
		probed += a.Episodes
		if a.Cured {
			cured++
		}
	}
	if probed == 0 {
		t.Fatal("probe arms saw no fault episodes")
	}
	if cured == 0 {
		t.Fatal("no probe arm cured its mechanism — ground truth degenerate")
	}
	for _, m := range rep.Mechs {
		if m.Curable && m.TruthRung == recovery.RungNone {
			t.Fatalf("%s: curable with no truth rung", m.Mechanism)
		}
	}

	s := rep.String()
	for _, want := range []string{"SCOPE experiment", "class recall", "rung exact", "Headline"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}

	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		MetricScopeSites, MetricScopeClassVerdicts,
		MetricScopeRungVerdicts, MetricScopeProbeEpisodes,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("metrics dump missing %s", metric)
		}
	}
	if len(tel.Episodes()) == 0 {
		t.Fatal("no episodes recorded")
	}
	var planned bool
	for _, ep := range tel.Episodes() {
		if ep.PlannedRung != "" {
			planned = true
		}
	}
	if !planned {
		t.Fatal("no recorded episode carries the statically planned rung")
	}
	if sum := tel.Summary(); !strings.Contains(sum, "planned rungs") {
		t.Fatalf("telemetry summary missing the planned-rungs column:\n%s", sum)
	}
}

// TestScopeRungVerdict pins the verdict semantics: exact on agreement, over
// when the prediction pays more than measured, under when it pays less.
func TestScopeRungVerdict(t *testing.T) {
	cases := []struct {
		static, truth recovery.Rung
		want          string
	}{
		{recovery.RungRetry, recovery.RungRetry, "exact"},
		{recovery.RungRestart, recovery.RungMicroreboot, "over"},
		{recovery.RungRetry, recovery.RungRestore, "under"},
		{recovery.RungNone, recovery.RungRetry, "under"},
	}
	for _, c := range cases {
		m := ScopeMech{StaticRung: c.static, TruthRung: c.truth}
		if got := m.RungVerdict(); got != c.want {
			t.Errorf("RungVerdict(%s vs %s) = %q, want %q", c.static, c.truth, got, c.want)
		}
	}
}

// TestScopeCheckFails exercises the gate's failure paths on synthetic
// scorecards.
func TestScopeCheckFails(t *testing.T) {
	mech := func(classOK bool, verdict string) ScopeMech {
		m := ScopeMech{TruthClass: taxonomy.ClassEnvIndependent,
			StaticClass: taxonomy.ClassEnvIndependent,
			StaticRung:  recovery.RungRetry, TruthRung: recovery.RungRetry}
		if !classOK {
			m.StaticClass = taxonomy.ClassEnvDependentTransient
		}
		if verdict == "under" {
			m.TruthRung = recovery.RungRestart
		}
		return m
	}

	empty := &ScopeReport{}
	if err := empty.Check(); err == nil {
		t.Error("Check on empty report passed, want failure")
	}

	badRecall := &ScopeReport{Mechs: []ScopeMech{
		mech(false, "exact"), mech(false, "exact"), mech(true, "exact")}}
	if err := badRecall.Check(); err == nil || !strings.Contains(err.Error(), "class recall") {
		t.Errorf("Check with 1/3 recall = %v, want class-recall failure", err)
	}

	badUnder := &ScopeReport{Mechs: []ScopeMech{
		mech(true, "under"), mech(true, "exact"), mech(true, "exact")}}
	if err := badUnder.Check(); err == nil || !strings.Contains(err.Error(), "under-scoped") {
		t.Errorf("Check with 1/3 EI under-scoping = %v, want under-scope failure", err)
	}

	good := &ScopeReport{Mechs: []ScopeMech{
		mech(true, "exact"), mech(true, "exact"), mech(true, "exact")}}
	if err := good.Check(); err != nil {
		t.Errorf("Check on clean report: %v", err)
	}
}

// TestScopeKnownDisagreements pins, as named cases, the exact set of
// mechanisms where the static analysis disagrees with the dynamic ground
// truth at seed 42: a wrong class, or a rung that under-scopes the cheapest
// cure. Each is a known limitation documented in EXPERIMENTS.md (SCOPE); a
// fix moves SCOPE's golden row, so it changes this table on purpose.
func TestScopeKnownDisagreements(t *testing.T) {
	const (
		ei  = taxonomy.ClassEnvIndependent
		edn = taxonomy.ClassEnvDependentNonTransient
		edt = taxonomy.ClassEnvDependentTransient
	)
	type verdict struct {
		truthClass, staticClass taxonomy.FaultClass
		truthRung, staticRung   recovery.Rung
	}
	cases := []struct {
		mech string
		want verdict
	}{
		{"httpd/load-resource-leak", verdict{edn, ei, recovery.RungMicroreboot, recovery.RungRestore}},
		{"desktop/hostname-change", verdict{edn, edn, recovery.RungRestart, recovery.RungRestore}},
		{"httpd/port-squat", verdict{edt, edt, recovery.RungMicroreboot, recovery.RungRetry}},
		{"httpd/slow-network", verdict{edt, edt, recovery.RungRestart, recovery.RungRetry}},
		{"sqldb/no-reverse-dns", verdict{edn, edn, recovery.RungRestart, recovery.RungMicroreboot}},
	}
	rep, err := RunScope(ScopeConfig{Seed: 42, Workers: 0})
	if err != nil {
		t.Fatalf("RunScope: %v", err)
	}
	got := map[string]verdict{}
	for _, m := range rep.Mechs {
		if !m.ClassOK() || m.RungVerdict() == "under" {
			got[m.Mechanism] = verdict{m.TruthClass, m.StaticClass, m.TruthRung, m.StaticRung}
		}
	}
	render := func(v verdict) string {
		return fmt.Sprintf("class %s->%s rung %s->%s",
			v.truthClass.Short(), v.staticClass.Short(), v.truthRung, v.staticRung)
	}
	for _, c := range cases {
		t.Run(c.mech, func(t *testing.T) {
			g, ok := got[c.mech]
			if !ok {
				t.Fatal("no longer a disagreement: update this table and EXPERIMENTS.md")
			}
			if g != c.want {
				t.Errorf("%s, want %s", render(g), render(c.want))
			}
		})
		delete(got, c.mech)
	}
	for mech, g := range got {
		t.Errorf("new disagreement %s: %s", mech, render(g))
	}
}
