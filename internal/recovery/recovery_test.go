package recovery

import (
	"fmt"
	"strings"
	"testing"

	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// Interface compliance: every simulated application is recoverable.
var (
	_ Application = (*httpd.Server)(nil)
	_ Application = (*sqldb.Server)(nil)
	_ Application = (*desktop.Desktop)(nil)
)

func httpdScenario(t *testing.T, mech string, seed int64) (*httpd.Server, faultinject.Scenario) {
	t.Helper()
	env := simenv.New(seed, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	srv := httpd.New(env, faultinject.NewSet(mech))
	sc, ok := httpd.Scenario(srv, mech)
	if !ok {
		t.Fatalf("no scenario for %s", mech)
	}
	return srv, sc
}

func run(t *testing.T, app Application, sc faultinject.Scenario, strat Strategy) Outcome {
	t.Helper()
	m := NewManager(Policy{})
	out, err := m.Run(app, sc, strat)
	if err != nil {
		t.Fatalf("run %s under %s: %v", sc.Mechanism, strat, err)
	}
	return out
}

func TestNoRecoveryIsTerminal(t *testing.T) {
	srv, sc := httpdScenario(t, httpd.MechValistReuse, 1)
	out := run(t, srv, sc, StrategyNone)
	if out.Survived {
		t.Error("no-recovery run should not survive")
	}
	if out.FirstFailure == nil || out.FirstFailure.Mechanism != httpd.MechValistReuse {
		t.Errorf("first failure = %+v", out.FirstFailure)
	}
	if out.Attempts != 0 {
		t.Errorf("attempts = %d, want 0", out.Attempts)
	}
}

func TestProcessPairsCannotSurviveEnvIndependent(t *testing.T) {
	for _, mech := range []string{
		httpd.MechLongURLOverflow,
		httpd.MechValistReuse,
		httpd.MechPallocZero,
		httpd.MechSighupCrash,
		httpd.MechMemoryLeakHup,
		httpd.MechNullDeref,
	} {
		srv, sc := httpdScenario(t, mech, 2)
		out := run(t, srv, sc, StrategyProcessPairs)
		if out.Survived {
			t.Errorf("%s: process pairs should NOT survive a deterministic fault", mech)
		}
		if out.Attempts == 0 {
			t.Errorf("%s: recovery never retried", mech)
		}
	}
}

func TestProcessPairsCannotSurviveNontransient(t *testing.T) {
	for _, mech := range []string{
		httpd.MechLoadResourceLeak,
		httpd.MechFDExhaustion,
		httpd.MechFSFull,
		httpd.MechPCMCIARemoval,
		httpd.MechLogFileLimit,
		httpd.MechDiskCacheFull,
		httpd.MechNetResource,
	} {
		srv, sc := httpdScenario(t, mech, 3)
		out := run(t, srv, sc, StrategyProcessPairs)
		if out.Survived {
			t.Errorf("%s: the environmental condition persists; process pairs should fail", mech)
		}
	}
}

func TestProcessPairsSurvivesTransients(t *testing.T) {
	for _, mech := range []string{
		httpd.MechDNSError,
		httpd.MechDNSSlow,
		httpd.MechSlowNetwork,
		httpd.MechEntropyStarved,
		httpd.MechProcTableFull,
		httpd.MechPortSquat,
		httpd.MechClientAbort,
	} {
		srv, sc := httpdScenario(t, mech, 4)
		out := run(t, srv, sc, StrategyProcessPairs)
		if !out.Survived {
			t.Errorf("%s: transient condition should clear under process pairs (err: %v)", mech, out.Err)
		}
		if out.Failures == 0 {
			t.Errorf("%s: scenario never failed; nothing was recovered", mech)
		}
	}
}

func TestProcessPairsPreservesStateAcrossFailover(t *testing.T) {
	// Survive a transient and check the application kept its pre-failure
	// state (request counter) — the "truly generic recovery preserves all
	// application state" property.
	srv, sc := httpdScenario(t, httpd.MechDNSError, 5)
	out := run(t, srv, sc, StrategyProcessPairs)
	if !out.Survived {
		t.Fatalf("run: %v", out.Err)
	}
	if srv.Requests() == 0 {
		t.Error("request counter lost across failover")
	}
}

func TestCleanRestartFixesLeakFaults(t *testing.T) {
	// Application-specific restart discards the leaked state, so the
	// leak-class faults — which defeat generic recovery — are survivable.
	for _, mech := range []string{
		httpd.MechMemoryLeakHup,
		httpd.MechLoadResourceLeak,
		httpd.MechFDExhaustion,
	} {
		srv, sc := httpdScenario(t, mech, 6)
		out := run(t, srv, sc, StrategyCleanRestart)
		if !out.Survived {
			t.Errorf("%s: clean restart should clear the accumulated state (err: %v)", mech, out.Err)
		}
	}
}

func TestCleanRestartCannotFixExternalConditions(t *testing.T) {
	for _, mech := range []string{
		httpd.MechFSFull,
		httpd.MechPCMCIARemoval,
		httpd.MechLongURLOverflow, // deterministic: restart changes nothing
	} {
		srv, sc := httpdScenario(t, mech, 7)
		out := run(t, srv, sc, StrategyCleanRestart)
		if out.Survived {
			t.Errorf("%s: clean restart should not fix an external condition", mech)
		}
	}
}

func TestCleanRestartLosesDatabaseState(t *testing.T) {
	// For stateful applications, state-discarding recovery breaks the
	// workload: the retried statement fails outside the fault model.
	env := simenv.New(8)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc, _ := sqldb.Scenario(srv, sqldb.MechOrderByEmpty)
	out := run(t, srv, sc, StrategyCleanRestart)
	if out.Survived {
		t.Error("dropping the database should not count as surviving")
	}
	if out.Err == nil || !strings.Contains(out.Err.Error(), "outside the fault model") {
		t.Errorf("err = %v, want workload broken outside the fault model", out.Err)
	}
}

func TestProcessPairsOnDatabaseRaces(t *testing.T) {
	for _, mech := range []string{sqldb.MechSignalMaskRace, sqldb.MechLoginAdminRace} {
		env := simenv.New(9)
		srv := sqldb.New(env, faultinject.NewSet(mech))
		sc, _ := sqldb.Scenario(srv, mech)
		out := run(t, srv, sc, StrategyProcessPairs)
		if !out.Survived {
			t.Errorf("%s: race should clear on retry (err: %v)", mech, out.Err)
		}
	}
}

func TestProcessPairsOnDatabaseDeterministicFaults(t *testing.T) {
	for _, mech := range []string{
		sqldb.MechIndexUpdateScan,
		sqldb.MechCountEmpty,
		sqldb.MechOrderByEmpty,
		sqldb.MechOptimizeCrash,
		sqldb.MechFlushAfterLock,
	} {
		env := simenv.New(10)
		srv := sqldb.New(env, faultinject.NewSet(mech))
		sc, _ := sqldb.Scenario(srv, mech)
		out := run(t, srv, sc, StrategyProcessPairs)
		if out.Survived {
			t.Errorf("%s: deterministic database fault should recur after state-preserving recovery", mech)
		}
	}
}

func TestProcessPairsOnDesktop(t *testing.T) {
	transient := []string{desktop.MechUnknownTransient, desktop.MechViewerRace, desktop.MechAppletRace}
	for _, mech := range transient {
		env := simenv.New(11)
		d := desktop.New(env, faultinject.NewSet(mech))
		sc, _ := desktop.Scenario(d, mech)
		out := run(t, d, sc, StrategyProcessPairs)
		if !out.Survived {
			t.Errorf("%s: desktop race should clear on retry (err: %v)", mech, out.Err)
		}
	}
	persistent := []string{desktop.MechHostnameChange, desktop.MechSoundSocketLeak, desktop.MechIllegalOwner}
	for _, mech := range persistent {
		env := simenv.New(12, simenv.WithFDLimit(24))
		d := desktop.New(env, faultinject.NewSet(mech))
		sc, _ := desktop.Scenario(d, mech)
		out := run(t, d, sc, StrategyProcessPairs)
		if out.Survived {
			t.Errorf("%s: persistent condition should defeat process pairs", mech)
		}
	}
}

func TestCleanRestartFixesHostnameChange(t *testing.T) {
	env := simenv.New(13)
	d := desktop.New(env, faultinject.NewSet(desktop.MechHostnameChange))
	sc, _ := desktop.Scenario(d, desktop.MechHostnameChange)
	out := run(t, d, sc, StrategyCleanRestart)
	if !out.Survived {
		t.Errorf("logging out and back in re-reads the hostname; should survive (err: %v)", out.Err)
	}
}

func TestProgressiveRetrySurvivesRacesDeterministically(t *testing.T) {
	// Progressive retry forces a *different* interleaving on the first
	// retry, so races are survived in exactly one attempt regardless of
	// scheduler luck.
	for seed := int64(0); seed < 10; seed++ {
		srv, sc := httpdScenario(t, httpd.MechClientAbort, 100+seed)
		out := run(t, srv, sc, StrategyProgressiveRetry)
		if !out.Survived {
			t.Fatalf("seed %d: progressive retry should always survive the race (err: %v)", seed, out.Err)
		}
		if out.Attempts != 1 {
			t.Errorf("seed %d: attempts = %d, want exactly 1", seed, out.Attempts)
		}
	}
}

func TestProgressiveRetryStillLosesDeterministicFaults(t *testing.T) {
	srv, sc := httpdScenario(t, httpd.MechLongURLOverflow, 14)
	out := run(t, srv, sc, StrategyProgressiveRetry)
	if out.Survived {
		t.Error("progressive retry cannot fix an environment-independent fault")
	}
}

func TestOutcomeAccounting(t *testing.T) {
	srv, sc := httpdScenario(t, httpd.MechDNSError, 15)
	out := run(t, srv, sc, StrategyProcessPairs)
	if !out.Survived {
		t.Fatalf("run: %v", out.Err)
	}
	if out.Failures != 1 || out.Recoveries != 1 {
		t.Errorf("failures=%d recoveries=%d, want 1/1", out.Failures, out.Recoveries)
	}
	// The DNS outage heals after 90s of virtual time; with 45s takeovers the
	// second retry lands after healing.
	if out.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", out.Attempts)
	}
	if out.FirstFailure.Symptom != taxonomy.SymptomError {
		t.Errorf("symptom = %v", out.FirstFailure.Symptom)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range Strategies() {
		if s.String() == "" || strings.HasPrefix(s.String(), "Strategy(") {
			t.Errorf("missing name for %d", int(s))
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy string")
	}
}

// TestRungNames pins every rung's report name in cost order, RungNone
// first, and the five action rungs Rungs returns.
func TestRungNames(t *testing.T) {
	want := []string{"none", "retry", "microreboot", "subtree-reboot", "restore", "restart", "degraded"}
	for i, name := range want {
		if got := Rung(i).String(); got != name {
			t.Errorf("Rung(%d) = %q, want %q", i, got, name)
		}
	}
	if RungNone != 0 || RungDegraded != Rung(len(want)-1) {
		t.Errorf("RungNone = %d, RungDegraded = %d: the enum no longer runs none..degraded", RungNone, RungDegraded)
	}
	if got := Rung(99).String(); got != "Rung(99)" {
		t.Errorf("unknown rung renders %q, want Rung(99)", got)
	}
	if got := fmt.Sprint(Rungs()); got != "[retry microreboot subtree-reboot restore restart]" {
		t.Errorf("Rungs() = %s, want the five action rungs in cost order", got)
	}
}

func TestUnknownStrategyFailsCleanly(t *testing.T) {
	srv, sc := httpdScenario(t, httpd.MechValistReuse, 16)
	m := NewManager(Policy{})
	out, err := m.Run(srv, sc, Strategy(99))
	if err != nil {
		t.Fatalf("unexpected harness error: %v", err)
	}
	if out.Survived || out.Err == nil {
		t.Error("unknown strategy should fail the run, not survive")
	}
}
