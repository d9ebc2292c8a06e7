package supervise

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

// Interface compliance: every simulated application supports degraded mode.
var (
	_ Degradable = (*httpd.Server)(nil)
	_ Degradable = (*sqldb.Server)(nil)
	_ Degradable = (*desktop.Desktop)(nil)
)

// httpdUnder builds an httpd server with one active fault mechanism and
// returns it together with the mechanism's staged scenario.
func httpdUnder(t *testing.T, mech string, seed int64) (*httpd.Server, faultinject.Scenario) {
	t.Helper()
	env := simenv.New(seed, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	srv := httpd.New(env, faultinject.NewSet(mech))
	sc, ok := httpd.Scenario(srv, mech)
	if !ok {
		t.Fatalf("no scenario for %s", mech)
	}
	return srv, sc
}

// wrapOps converts scenario ops into supervised ops of the given kind.
func wrapOps(ops []faultinject.Op, kind OpKind) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		out = append(out, Op{Name: op.Name, Kind: kind, Do: op.Do})
	}
	return out
}

// TestBackoffScheduleShape pins the supervisor's backoff at the production
// policy: 1s doubling to a 4m cap, plus up to 25% jitter drawn from a
// generator seeded by Config.Seed alone.
func TestBackoffScheduleShape(t *testing.T) {
	want := []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
		32 * time.Second, 64 * time.Second, 128 * time.Second,
		4 * time.Minute, 4 * time.Minute, // capped
	}
	exact := newBackoff(backoffBase, backoffCap, 0, 0)
	for i, w := range want {
		if got := exact.next(i + 1); got != w {
			t.Errorf("unjittered delay[%d] = %s, want %s", i, got, w)
		}
	}

	// The supervisor's own sequence: every delay lies in [pure, pure*1.25],
	// the jitter is drawn, and the sequence is the 25%-jitter sequence of
	// its seed.
	schedule := func(seed int64) []time.Duration {
		b := New(newStubApp(1), Config{Seed: seed}).backoff
		out := make([]time.Duration, len(want))
		for i := range out {
			out[i] = b.next(i + 1)
		}
		return out
	}
	a := schedule(42)
	ref := newBackoff(time.Second, 4*time.Minute, 0.25, 42)
	jittered := false
	for i := range a {
		if w := ref.next(i + 1); a[i] != w {
			t.Errorf("delay[%d] = %s, want %s from seed 42", i, a[i], w)
		}
		lo, hi := want[i], want[i]+want[i]/4
		if a[i] < lo || a[i] > hi {
			t.Errorf("jittered delay[%d] = %s outside [%s, %s]", i, a[i], lo, hi)
		}
		if a[i] > lo {
			jittered = true
		}
	}
	if !jittered {
		t.Error("no delay carried jitter")
	}
	if fmt.Sprint(schedule(43)) == fmt.Sprint(a) {
		t.Error("different seeds produced identical jittered schedules")
	}
}

// TestRetryInPlaceSurvivesTransientRace drives the EDT client-abort race: the
// staged losing interleaving kills the server once, and the first ladder rung
// (retry with a perturbed schedule) must recover it without escalating.
func TestRetryInPlaceSurvivesTransientRace(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechClientAbort, 3)
	sc.Stage()
	sup := New(srv, Config{Seed: 3})
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.OpsShed != 0 {
		t.Fatalf("ops failed=%d shed=%d, want 0/0\n%s", rep.OpsFailed, rep.OpsShed, rep)
	}
	if rep.Recovered != 1 {
		t.Errorf("recovered = %d, want 1", rep.Recovered)
	}
	if rep.FirstFailureOp != 1 {
		t.Errorf("first failure op = %d, want 1", rep.FirstFailureOp)
	}
	ms := rep.Mechanisms[httpd.MechClientAbort]
	if ms == nil || ms.Retries != 1 || ms.Recoveries != 1 {
		t.Errorf("mech stats = %+v, want 1 retry / 1 recovery", ms)
	}
	if len(rep.Escalations) != 0 {
		t.Errorf("escalations = %v, want none (first rung must suffice)", rep.Escalations)
	}
	if rep.Degraded {
		t.Error("transient race must not degrade the service")
	}
	for _, bs := range rep.Breakers {
		if bs.State != BreakerClosed {
			t.Errorf("breaker %s = %s, want closed", bs.Mechanism, bs.State)
		}
	}
}

// TestBreakerOpensOnEnvironmentIndependentFault drives the EI valist-reuse
// crash: every state-preserving retry recurs, so the failed-recovery streak
// reaches the breaker threshold of 10, the breaker opens, and later
// occurrences fast-fail without spending retries. A full ladder walk spends
// only 8 attempts, so the streak spans two episodes: a write walks every
// rung and is shed at the degraded rung, which leaves the breaker closed,
// and the next read's second retry is the tenth failed recovery.
func TestBreakerOpensOnEnvironmentIndependentFault(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 5)
	sup := New(srv, Config{Seed: 5})
	read := wrapOps(sc.Ops, OpRead)[0]
	write := read
	write.Kind = OpWrite
	rep, err := sup.Run([]Op{write, read, read})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ms := rep.Mechanisms[httpd.MechValistReuse]
	if ms == nil {
		t.Fatal("no mechanism stats recorded")
	}
	if ms.BreakerOpens != 1 {
		t.Errorf("breaker opens = %d, want 1", ms.BreakerOpens)
	}
	if ms.Retries != 10 {
		t.Errorf("retries = %d, want 10 (8 on the first walk, 2 on the read)", ms.Retries)
	}
	if ms.FastFails != 1 {
		t.Errorf("fast fails = %d, want 1 (the read after the breaker opened)", ms.FastFails)
	}
	if ms.Recoveries != 0 {
		t.Errorf("recoveries = %d, want 0", ms.Recoveries)
	}
	if rep.OpsShed != 1 || rep.OpsFailed != 2 {
		t.Errorf("ops shed/failed = %d/%d, want 1/2", rep.OpsShed, rep.OpsFailed)
	}
	if rep.Escalations[recovery.RungMicroreboot] != 1 {
		t.Errorf("escalations = %v, want one walk (the read must stop at the retry rung)", rep.Escalations)
	}
	var open bool
	for _, bs := range rep.Breakers {
		if bs.Mechanism == httpd.MechValistReuse && bs.State == BreakerOpen {
			open = true
		}
	}
	if !open {
		t.Errorf("final breaker states = %+v, want %s open", rep.Breakers, httpd.MechValistReuse)
	}
}

// TestFullDiskEscalatesToDegraded drives the EDN fs-full condition: no rung
// can un-fill a disk another tenant filled, so the ladder climbs to degraded
// mode, where reads are served (logging suspended) and writes are shed.
func TestFullDiskEscalatesToDegraded(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechFSFull, 7)
	sc.Stage()
	read := Op{Name: "GET /index.html", Kind: OpRead, Do: sc.Ops[0].Do}
	write := Op{Name: "GET /proxy/page", Kind: OpWrite, Do: func() error {
		_, err := srv.Serve(httpd.Request{Method: "GET", Path: "/proxy/page"})
		return err
	}}
	sup := New(srv, Config{Seed: 7})
	rep, err := sup.Run([]Op{read, read, write, read, write, read})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Degraded || rep.DegradedAtOp != 1 {
		t.Fatalf("degraded=%v at op %d, want degraded at op 1\n%s", rep.Degraded, rep.DegradedAtOp, rep)
	}
	if rep.OpsFailed != 0 {
		t.Errorf("ops failed = %d, want 0 (degraded mode keeps serving reads)\n%s", rep.OpsFailed, rep)
	}
	if rep.OpsShed != 2 {
		t.Errorf("ops shed = %d, want 2 (both proxy writes)", rep.OpsShed)
	}
	if rep.OpsOK != 4 {
		t.Errorf("ops ok = %d, want 4 (every read served)", rep.OpsOK)
	}
	if !rep.Served() {
		t.Error("Served() = false, want true: nothing was lost")
	}
	// The ladder was walked in full: every intermediate rung was tried.
	for _, rung := range []recovery.Rung{recovery.RungMicroreboot, recovery.RungRestore, recovery.RungRestart, recovery.RungDegraded} {
		if rep.Escalations[rung] == 0 {
			t.Errorf("escalations[%s] = 0, want > 0", rung)
		}
	}
	if !srv.Degraded() {
		t.Error("server not left in degraded mode")
	}
}

// TestDegradedRetryFailureReverts drives an EI crash all the way up the
// ladder, whose eight failed recoveries stay below the breaker threshold:
// degraded mode is entered, the degraded retry still fails (the fault is not
// a resource condition), so degraded mode is reverted, the breaker
// force-opens, and full service resumes for the rest of the workload.
func TestDegradedRetryFailureReverts(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 11)
	sup := New(srv, Config{Seed: 11})
	bad := wrapOps(sc.Ops, OpRead)[0]
	good := Op{Name: "GET /index.html", Kind: OpRead, Do: func() error {
		_, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"})
		return err
	}}
	rep, err := sup.Run([]Op{bad, good, bad, good})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Degraded {
		t.Error("degraded mode should have been reverted (the degraded retry failed)")
	}
	if srv.Degraded() {
		t.Error("server left degraded")
	}
	ms := rep.Mechanisms[httpd.MechValistReuse]
	if ms == nil || ms.BreakerOpens != 1 {
		t.Errorf("mech stats = %+v, want exactly 1 (forced) breaker open", ms)
	}
	if ms != nil && ms.FastFails != 1 {
		t.Errorf("fast fails = %d, want 1 (second bad op)", ms.FastFails)
	}
	if rep.OpsFailed != 2 {
		t.Errorf("ops failed = %d, want 2 (both bad ops)", rep.OpsFailed)
	}
	if rep.OpsOK != 2 {
		t.Errorf("ops ok = %d, want 2 (good ops served at full service)", rep.OpsOK)
	}
}

// TestBackoffTraceMatchesSchedule asserts the supervisor sleeps exactly the
// delays its seed's backoff sequence predicts, attempt by attempt.
func TestBackoffTraceMatchesSchedule(t *testing.T) {
	var backoffs []recovery.Event
	cfg := Config{Seed: 21, Trace: func(ev recovery.Event) {
		if ev.Kind == recovery.EventBackoff {
			backoffs = append(backoffs, ev)
		}
	}}
	srv, sc := httpdUnder(t, httpd.MechValistReuse, 21)
	sup := New(srv, cfg)
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(backoffs) == 0 {
		t.Fatal("no backoff events traced")
	}
	want := newBackoff(backoffBase, backoffCap, backoffJitter, 21)
	var total time.Duration
	for i, ev := range backoffs {
		if w := want.next(ev.Attempt); ev.Delay != w {
			t.Errorf("backoff[%d] (attempt %d) = %s, want %s", i, ev.Attempt, ev.Delay, w)
		}
		total += ev.Delay
	}
	if rep.BackoffTotal != total {
		t.Errorf("BackoffTotal = %s, want %s", rep.BackoffTotal, total)
	}
}

// stubApp is a minimal Application for watchdog tests.
type stubApp struct {
	env     *simenv.Env
	running bool
}

func newStubApp(seed int64) *stubApp         { return &stubApp{env: simenv.New(seed)} }
func (a *stubApp) Name() string              { return "stub" }
func (a *stubApp) Env() *simenv.Env          { return a.env }
func (a *stubApp) Running() bool             { return a.running }
func (a *stubApp) Start() error              { a.running = true; return nil }
func (a *stubApp) Stop()                     { a.running = false }
func (a *stubApp) Snapshot() ([]byte, error) { return []byte("{}"), nil }
func (a *stubApp) Restore([]byte) error      { a.running = true; return nil }
func (a *stubApp) Reset() error              { a.running = true; return nil }

// TestWatchdogChargesHangSymptom: a failure reporting the hang symptom
// charges the virtual clock with the 30s watchdog timeout — the modeled time
// the application sat unresponsive — before recovery proceeds.
func TestWatchdogChargesHangSymptom(t *testing.T) {
	app := newStubApp(31)
	const mech = "stub/hang"
	fails := 1
	op := Op{Name: "hang-once", Kind: OpRead, Do: func() error {
		if fails > 0 {
			fails--
			return faultinject.Fail(mech, taxonomy.SymptomHang, "stuck in a loop")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 31})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.Recovered != 1 {
		t.Fatalf("failed=%d recovered=%d, want 0/1\n%s", rep.OpsFailed, rep.Recovered, rep)
	}
	ms := rep.Mechanisms[mech]
	if ms == nil || ms.WatchdogTimeouts != 1 {
		t.Errorf("mech stats = %+v, want 1 watchdog timeout", ms)
	}
	// The episode is the hang charge plus the one backoff before the retry.
	if got, want := app.env.Monotonic(), 30*time.Second+rep.BackoffTotal; got != want {
		t.Errorf("virtual clock advanced %s, want %s (30s hang charge + backoff)", got, want)
	}
}

// TestPanicIsSupervised: a panicking op is converted into a failure and
// survives supervision instead of unwinding the harness.
func TestPanicIsSupervised(t *testing.T) {
	app := newStubApp(41)
	panics := 1
	op := Op{Name: "panicky", Kind: OpRead, Do: func() error {
		if panics > 0 {
			panics--
			panic("boom")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 41})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Recovered != 1 || rep.OpsFailed != 0 {
		t.Fatalf("recovered=%d failed=%d, want 1/0\n%s", rep.Recovered, rep.OpsFailed, rep)
	}
	if ms := rep.Mechanisms[MechPanic]; ms == nil || ms.Failures != 1 {
		t.Errorf("mech stats = %+v, want 1 panic failure", ms)
	}
}

// TestBreakerHalfOpenTrialCloses: an open breaker fast-fails until its 20m
// cooldown has passed, then admits one trial episode; a successful recovery
// closes it again.
func TestBreakerHalfOpenTrialCloses(t *testing.T) {
	app := newStubApp(43)
	const mech = "stub/heals-later"
	// The fault fails a fixed number of executions, then heals: 10 in the
	// first run (initial, eight ladder retries, the degraded retry — after
	// which the breaker force-opens), 1 fast-failed initial in the second
	// run, and 1 more initial failure in the third run whose half-open
	// trial retry then succeeds.
	failsLeft := 12
	op := Op{Name: "heals-later", Kind: OpRead, Do: func() error {
		if failsLeft > 0 {
			failsLeft--
			return faultinject.Fail(mech, taxonomy.SymptomError, "still broken")
		}
		return nil
	}}
	sup := New(app, Config{Seed: 43})
	// First run: breaker opens.
	if rep, err := sup.Run([]Op{op}); err != nil || rep.Mechanisms[mech].BreakerOpens != 1 {
		t.Fatalf("first run: err=%v report=\n%s", err, rep)
	}
	opened := app.env.Monotonic()
	// Second run on the same supervisor, a second before the cooldown ends:
	// fast-fail.
	app.env.Advance(20*time.Minute - time.Second)
	rep, err := sup.Run([]Op{op})
	if err != nil || rep.Mechanisms[mech].FastFails != 1 {
		t.Fatalf("pre-cooldown run: err=%v report=\n%s", err, rep)
	}
	// Once the cooldown has passed, the next failure is admitted as a
	// half-open trial, and its successful recovery closes the breaker.
	app.env.Advance(opened + 20*time.Minute - app.env.Monotonic())
	rep, err = sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("post-cooldown run: %v", err)
	}
	if rep.OpsOK != 1 || rep.Recovered != 1 {
		t.Errorf("post-cooldown ok=%d recovered=%d, want 1/1\n%s", rep.OpsOK, rep.Recovered, rep)
	}
	for _, bs := range rep.Breakers {
		if bs.Mechanism == mech && bs.State != BreakerClosed {
			t.Errorf("breaker %s = %s, want closed after successful trial", mech, bs.State)
		}
	}
}

// TestCrashLoopTripsRetryBudget: the retry budget allows 12 recovery
// attempts per 30 virtual minutes. A write of one mechanism exhausts the
// ladder (8 attempts) and is shed; 20 minutes later a read of a second
// mechanism spends the remaining 4, and its next attempt trips the crash
// loop into the degraded rung. When 30 minutes separate the two episodes,
// the first episode's attempts have left the window and the read walks the
// whole ladder instead.
func TestCrashLoopTripsRetryBudget(t *testing.T) {
	const mechA, mechB = "stub/write-bug", "stub/read-bug"
	write := Op{Name: "write", Kind: OpWrite, Do: func() error {
		return faultinject.Fail(mechA, taxonomy.SymptomError, "broken")
	}}
	read := Op{Name: "read", Kind: OpRead, Do: func() error {
		return faultinject.Fail(mechB, taxonomy.SymptomError, "broken")
	}}
	run := func(gap time.Duration) *Report {
		t.Helper()
		app := newStubApp(47)
		pause := Op{Name: "pause", Kind: OpRead, Do: func() error { app.env.Advance(gap); return nil }}
		rep, err := New(app, Config{Seed: 47}).Run([]Op{write, pause, read})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if rep.Mechanisms[mechA].Retries != 8 || rep.OpsShed != 1 {
			t.Fatalf("gap %s: the write should spend 8 retries and be shed\n%s", gap, rep)
		}
		return rep
	}

	rep := run(20 * time.Minute)
	if rep.CrashLoopTrips != 1 {
		t.Errorf("crash loop trips = %d, want 1", rep.CrashLoopTrips)
	}
	// Four ladder retries fill the budget; the fifth is the degraded retry.
	if got := rep.Mechanisms[mechB].Retries; got != 5 {
		t.Errorf("read retries = %d, want 5 (4 within the budget + the degraded retry)", got)
	}
	if rep.Escalations[recovery.RungRestart] != 1 {
		t.Errorf("escalations = %v, want only the write to reach the restart rung", rep.Escalations)
	}

	rep = run(30 * time.Minute)
	if rep.CrashLoopTrips != 0 {
		t.Errorf("crash loop trips = %d after a 30m gap, want 0", rep.CrashLoopTrips)
	}
	if got := rep.Mechanisms[mechB].Retries; got != 9 {
		t.Errorf("read retries = %d after a 30m gap, want 9 (a full walk + the degraded retry)", got)
	}
}

// TestRunDeterminism: identical seeds produce identical reports.
func TestRunDeterminism(t *testing.T) {
	render := func() string {
		srv, sc := httpdUnder(t, httpd.MechFSFull, 53)
		sc.Stage()
		sup := New(srv, Config{Seed: 53})
		rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two identical runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestSqldbDegradedReadOnly: the database's degraded mode rejects writes with
// ErrReadOnly and keeps answering SELECTs.
func TestSqldbDegradedReadOnly(t *testing.T) {
	env := simenv.New(61)
	db := sqldb.New(env, faultinject.NewSet())
	if err := db.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer db.Stop()
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE t (id INT, name TEXT)")
	mustExec("INSERT INTO t VALUES (1, 'a')")
	db.SetDegraded(true)
	if _, err := db.Exec("INSERT INTO t VALUES (2, 'b')"); !errors.Is(err, sqldb.ErrReadOnly) {
		t.Errorf("degraded INSERT err = %v, want ErrReadOnly", err)
	}
	rs, err := db.Exec("SELECT id, name FROM t")
	if err != nil {
		t.Fatalf("degraded SELECT: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Errorf("degraded SELECT rows = %d, want 1", len(rs.Rows))
	}
	db.SetDegraded(false)
	mustExec("INSERT INTO t VALUES (2, 'b')")
}

// TestHttpdDegradedServesOnFullDisk: with the disk full and logging the only
// blocked path, degraded mode serves static content that full service cannot.
func TestHttpdDegradedServesOnFullDisk(t *testing.T) {
	srv, sc := httpdUnder(t, httpd.MechFSFull, 67)
	sc.Stage()
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer srv.Stop()
	if _, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"}); err == nil {
		t.Fatal("full-service GET on a full disk should fail")
	}
	srv.SetDegraded(true)
	resp, err := srv.Serve(httpd.Request{Method: "GET", Path: "/index.html"})
	if err != nil || resp.Status != 200 {
		t.Errorf("degraded GET = (%+v, %v), want 200", resp, err)
	}
}

// TestRungAndEventNames pins the human-readable names reports rely on.
func TestRungAndEventNames(t *testing.T) {
	wantRungs := []string{"retry", "microreboot", "restore", "restart", "degraded"}
	for i, r := range Rungs() {
		if r.String() != wantRungs[i] {
			t.Errorf("rung %d = %q, want %q", i, r, wantRungs[i])
		}
	}
	if !strings.Contains((&Report{Mechanisms: map[string]*MechStats{}, Escalations: map[recovery.Rung]int{}}).String(), "Supervisor report") {
		t.Error("report header missing")
	}
}

func TestBackoffInjectedRandReproducible(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		b := newBackoff(10*time.Millisecond, 500*time.Millisecond, 0.5, seed)
		if b.rng != nil {
			t.Fatal("jitter generator built before the first delay")
		}
		out := make([]time.Duration, 0, 6)
		for i := 1; i <= 6; i++ {
			out = append(out, b.next(i))
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jittered sequences")
	}
}

func TestBackoffNilRandDisablesJitter(t *testing.T) {
	b := newBackoff(10*time.Millisecond, 500*time.Millisecond, 0, 7)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	for i, w := range want {
		if got := b.next(i + 1); got != w {
			t.Errorf("attempt %d: delay %v, want exact %v (zero jitter must mean no jitter)", i+1, got, w)
		}
	}
	if b.rng != nil {
		t.Error("an unjittered sequence built a jitter generator")
	}
}

// TestEpisodeDurationStampedAtDecisionTime is the regression test for the
// percentile misreport: an episode's duration must be stamped when the
// supervisor reaches its verdict — after every backoff slept and every
// watchdog charge incurred — not when the last recovery action ran, which
// would drop the trailing watchdog charge of an episode whose last retry
// hung.
func TestEpisodeDurationStampedAtDecisionTime(t *testing.T) {
	const hangCharge = 30 * time.Second

	// Served case: one hang, one backoff, then success. The repair duration
	// must be hang + first backoff exactly.
	srv, _ := httpdUnder(t, httpd.MechNullDeref, 7) // mechanism unused; no scenario ops run
	failures := 1
	op := Op{Name: "flaky", Kind: OpRead, Do: func() error {
		if failures > 0 {
			failures--
			return faultinject.Fail("httpd/test-hang", taxonomy.SymptomHang, "wedged")
		}
		return nil
	}}
	sup := New(srv, Config{Seed: 7})
	rep, err := sup.Run([]Op{op})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The first backoff is 1s plus up to 25% jitter.
	if rep.BackoffTotal < time.Second || rep.BackoffTotal > time.Second+time.Second/4 {
		t.Fatalf("BackoffTotal = %s, want the first backoff in [1s, 1.25s]", rep.BackoffTotal)
	}
	wantServed := hangCharge + rep.BackoffTotal // initial hang charge + backoff(1)
	if len(rep.EpisodeDurations) != 1 || rep.EpisodeDurations[0] != wantServed {
		t.Fatalf("EpisodeDurations = %v, want [%s]", rep.EpisodeDurations, wantServed)
	}
	if len(rep.RepairDurations) != 1 || rep.RepairDurations[0] != wantServed {
		t.Fatalf("RepairDurations = %v, want [%s]", rep.RepairDurations, wantServed)
	}
	if s := rep.String(); !strings.Contains(s, "episodes: 1") || !strings.Contains(s, "MTTR (served episodes)") {
		t.Fatalf("report missing episode percentiles:\n%s", s)
	}

	// Shed case: the op always hangs, so the write walks every rung and is
	// shed at the degraded rung. The episode's duration must still include
	// the last retry's trailing watchdog charge: nine hangs (the initial one
	// and one per retry) plus every backoff.
	srv2, _ := httpdUnder(t, httpd.MechNullDeref, 8)
	always := Op{Name: "wedged-write", Kind: OpWrite, Do: func() error {
		return faultinject.Fail("httpd/test-hang", taxonomy.SymptomHang, "wedged")
	}}
	sup2 := New(srv2, Config{Seed: 8})
	rep2, err := sup2.Run([]Op{always})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep2.OpsShed != 1 {
		t.Fatalf("OpsShed = %d, want 1 (the degraded rung should shed the write)", rep2.OpsShed)
	}
	if rep2.CrashLoopTrips != 0 || rep2.Escalations[recovery.RungRestart] != 1 {
		t.Fatalf("want a full ladder walk without a crash-loop trip:\n%s", rep2)
	}
	wantShed := 9*hangCharge + rep2.BackoffTotal
	if len(rep2.EpisodeDurations) != 1 || rep2.EpisodeDurations[0] != wantShed {
		t.Fatalf("EpisodeDurations = %v, want [%s] (must include the trailing watchdog charge)",
			rep2.EpisodeDurations, wantShed)
	}
	if len(rep2.RepairDurations) != 0 {
		t.Fatalf("RepairDurations = %v, want empty (op was shed, not served)", rep2.RepairDurations)
	}
}

// TestMicrorebootTargetsFaultyComponent drives the EDN fd-exhaustion leak
// against the componentized httpd: in-place retries cannot un-leak
// descriptors, so the ladder escalates to the microreboot rung, which must
// reboot only the attributed core component — after which the retry succeeds
// because the crash-only kill closed every leaked descriptor. Sessions,
// living in the externalized store, must survive the whole run.
func TestMicrorebootTargetsFaultyComponent(t *testing.T) {
	env := simenv.New(7, simenv.WithFDLimit(16), simenv.WithProcLimit(192))
	c := httpd.Componentize(
		httpd.New(env, faultinject.NewSet(httpd.MechFDExhaustion)))

	var actions []recovery.Event
	cfg := Config{Seed: 7, Trace: func(ev recovery.Event) {
		if ev.Kind == recovery.EventAction {
			actions = append(actions, ev)
		}
	}}
	sup := New(c, cfg)

	ops := make([]Op, 0, 40)
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Name: fmt.Sprintf("GET-/-%02d", i), Kind: OpRead, Do: func() error {
			_, err := c.Serve(httpd.Request{Method: "GET", Path: "/", Session: "alice"})
			return err
		}})
	}
	rep, err := sup.Run(ops)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.OpsFailed != 0 || rep.OpsShed != 0 {
		t.Fatalf("ops failed=%d shed=%d, want 0/0\n%s", rep.OpsFailed, rep.OpsShed, rep)
	}
	if rep.Recovered == 0 {
		t.Fatal("expected at least one recovered episode")
	}
	if rep.Escalations[recovery.RungMicroreboot] == 0 {
		t.Fatalf("escalations = %v, want microreboot reached", rep.Escalations)
	}
	for _, r := range []recovery.Rung{recovery.RungRestore, recovery.RungRestart, recovery.RungDegraded} {
		if rep.Escalations[r] != 0 {
			t.Fatalf("escalated past microreboot (%v): the component reboot must suffice", rep.Escalations)
		}
	}
	var targeted int
	for _, ev := range actions {
		if ev.Rung == recovery.RungMicroreboot {
			if ev.Component != httpd.CompCore {
				t.Fatalf("microreboot action component = %q, want %q", ev.Component, httpd.CompCore)
			}
			targeted++
		} else if ev.Component != "" {
			t.Fatalf("%s action carries component %q, want empty", ev.Rung, ev.Component)
		}
	}
	if targeted == 0 {
		t.Fatal("no microreboot action events recorded")
	}
	if got := c.Tree().Reboots(httpd.CompCore); got == 0 {
		t.Fatal("core component was never rebooted")
	}
	// Siblings were never cycled: only the attributed component rebooted.
	for _, name := range []string{httpd.CompLogger, httpd.CompCache, httpd.CompCGI, httpd.CompListener} {
		if got := c.Tree().Reboots(name); got != 0 {
			t.Fatalf("sibling %s rebooted %d times, want 0", name, got)
		}
	}
	// The session counter counted every served op: it survived each reboot.
	if got := c.SessionDepth("alice"); got != int64(rep.OpsOK) {
		t.Fatalf("session depth = %d, want %d (one per served op)", got, rep.OpsOK)
	}
}

// TestMicrorebootWidensToSubtree drives the EI null-deref crash: the first
// microreboot attempt cycles only the attributed core component, and when
// the deterministic bug recurs the rung's second attempt must widen to the
// core's dependent subtree before the ladder escalates past it. The subtree
// reboot is the microreboot rung's action, not a rung of its own: both
// attempts' events carry RungMicroreboot, no event carries
// RungSubtreeReboot, and the ladder escalates from microreboot to restore.
func TestMicrorebootWidensToSubtree(t *testing.T) {
	env := simenv.New(9, simenv.WithFDLimit(64), simenv.WithProcLimit(192))
	c := httpd.Componentize(
		httpd.New(env, faultinject.NewSet(httpd.MechNullDeref)))

	var microAttempts int
	var escalations []recovery.Rung
	cfg := Config{Seed: 9, Trace: func(ev recovery.Event) {
		if ev.Rung == recovery.RungSubtreeReboot {
			t.Errorf("%v event carries the subtree-reboot rung", ev.Kind)
		}
		if ev.Kind == recovery.EventEscalate {
			escalations = append(escalations, ev.Rung)
		}
		if ev.Kind == recovery.EventAction && ev.Rung == recovery.RungMicroreboot {
			if ev.Component != httpd.CompCore {
				t.Errorf("microreboot component = %q, want %q", ev.Component, httpd.CompCore)
			}
			microAttempts++
		}
	}}
	sup := New(c, cfg)
	_, err := sup.Run([]Op{{Name: "GET /bug/null-deref", Kind: OpRead, Do: func() error {
		_, err := c.Serve(httpd.Request{Method: "GET", Path: "/bug/null-deref"})
		return err
	}}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if microAttempts != 2 {
		t.Fatalf("microreboot attempts = %d, want 2", microAttempts)
	}
	// Attempt 1 rebooted core alone; attempt 2 widened to the subtree, which
	// cycles core's dependents exactly once each.
	if got := c.Tree().Reboots(httpd.CompCore); got != 2 {
		t.Fatalf("core reboots = %d, want 2", got)
	}
	for _, name := range []string{httpd.CompLogger, httpd.CompCache, httpd.CompCGI, httpd.CompListener} {
		if got := c.Tree().Reboots(name); got != 1 {
			t.Fatalf("%s reboots = %d, want 1 (subtree widening only)", name, got)
		}
	}
	if len(escalations) < 2 || escalations[0] != recovery.RungMicroreboot || escalations[1] != recovery.RungRestore {
		t.Errorf("escalations = %v, want microreboot then restore first", escalations)
	}
}
