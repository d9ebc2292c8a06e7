package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"faultstudy/internal/simenv"
)

// durableOutputs renders everything a DURABLE run emits: the report text,
// the episode trace, and the Prometheus dump.
func durableOutputs(t *testing.T, cfg DurableConfig) (string, []byte, []byte) {
	t.Helper()
	cfg.Telemetry = NewTelemetry()
	rep, err := RunDurable(cfg)
	if err != nil {
		t.Fatalf("RunDurable: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	var trace, prom bytes.Buffer
	if err := cfg.Telemetry.WriteTrace(&trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := cfg.Telemetry.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return rep.String(), trace.Bytes(), prom.Bytes()
}

// TestRunDurableGate runs the full experiment once and asserts the gate and
// the arms' headline properties directly.
func TestRunDurableGate(t *testing.T) {
	rep, err := RunDurable(DurableConfig{Seed: 7})
	if err != nil {
		t.Fatalf("RunDurable: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Arms) != len(durableArms) {
		t.Fatalf("got %d arms, want %d", len(rep.Arms), len(durableArms))
	}
	byName := make(map[string]DurableArm)
	for _, a := range rep.Arms {
		byName[a.Name] = a
	}
	for _, name := range []string{"crash-drop", "crash-tear"} {
		a := byName[name]
		if a.Boundaries < durableCrashOps*2 {
			t.Errorf("%s: only %d boundaries enumerated", name, a.Boundaries)
		}
		if a.Crashes != a.Boundaries {
			t.Errorf("%s: %d crashes over %d boundaries", name, a.Crashes, a.Boundaries)
		}
	}
	if a := byName["crash-tear"]; a.Repairs == 0 {
		t.Errorf("crash-tear: torn tails never needed repair")
	}
	if a := byName["torn-write"]; a.DetectedLoss != 1 {
		t.Errorf("torn-write: detected loss = %d, want exactly the lied-about record", a.DetectedLoss)
	}
	if a := byName["short-write"]; a.Repairs == 0 {
		t.Errorf("short-write: the persisted prefix never needed repair")
	}
	if a := byName["none"]; a.Repairs != 0 {
		t.Errorf("baseline: %d repairs on a clean close", a.Repairs)
	}
	out := rep.String()
	if !bytes.Contains([]byte(out), []byte("DURABLE experiment")) {
		t.Fatalf("report render missing header:\n%s", out)
	}
}

// TestRunDurableWorkerIdentity asserts the contract the sharded sweeps
// document: report, trace, and metric dumps are byte-identical at every
// worker count.
func TestRunDurableWorkerIdentity(t *testing.T) {
	baseRep, baseTrace, baseProm := durableOutputs(t, DurableConfig{Seed: 11, Workers: 1})
	for _, workers := range []int{2, 8} {
		rep, trace, prom := durableOutputs(t, DurableConfig{Seed: 11, Workers: workers})
		if rep != baseRep {
			t.Fatalf("report differs at %d workers", workers)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Fatalf("trace differs at %d workers", workers)
		}
		if !bytes.Equal(prom, baseProm) {
			t.Fatalf("metrics differ at %d workers", workers)
		}
	}
}

// TestRunDurableResumeEquivalence is the warehouse claim end to end: halt a
// sweep partway (with a torn tail on the warehouse file, as a real kill
// would leave), resume it, and require the resumed run's report, trace, and
// metrics to be byte-identical to an uninterrupted run's.
func TestRunDurableResumeEquivalence(t *testing.T) {
	full := filepath.Join(t.TempDir(), "full.whs")
	fullRep, fullTrace, fullProm := durableOutputs(t, DurableConfig{Seed: 7, Workers: 2, Warehouse: full})

	resumed := filepath.Join(t.TempDir(), "resumed.whs")
	rep, err := RunDurable(DurableConfig{Seed: 7, Warehouse: resumed, HaltAfter: 4})
	if err != nil {
		t.Fatalf("halted run: %v", err)
	}
	if !rep.Halted || rep.Done != 4 || rep.Total != len(durableArms) {
		t.Fatalf("halted run: got halted=%v done=%d total=%d", rep.Halted, rep.Done, rep.Total)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("halted report must not gate: %v", err)
	}
	// A kill mid-append leaves a torn record; resume must shrug it off.
	f, err := os.OpenFile(resumed, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x2a, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resRep, resTrace, resProm := durableOutputs(t, DurableConfig{Seed: 7, Workers: 8, Warehouse: resumed, Resume: true})
	if resRep != fullRep {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", fullRep, resRep)
	}
	if !bytes.Equal(resTrace, fullTrace) {
		t.Fatalf("resumed trace differs from uninterrupted run")
	}
	if !bytes.Equal(resProm, fullProm) {
		t.Fatalf("resumed metrics differ from uninterrupted run")
	}
}

// TestRunDurableFreshWarehouseResets asserts that a non-resume run does not
// inherit stale arms: the warehouse is recreated from scratch.
func TestRunDurableFreshWarehouseResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.whs")
	if _, err := RunDurable(DurableConfig{Seed: 7, Warehouse: path, HaltAfter: 2}); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDurable(DurableConfig{Seed: 7, Warehouse: path, HaltAfter: 1}); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("fresh run did not reset the warehouse: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestRunDurableWarehouseIdentity asserts the warehouse file is inside the
// determinism contract: arms are recorded in arm order, so the file's bytes
// are identical at every worker count and after a halt-then-resume.
func TestRunDurableWarehouseIdentity(t *testing.T) {
	dir := t.TempDir()
	warehouseBytes := func(path string) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	base := filepath.Join(dir, "w1.whs")
	if _, err := RunDurable(DurableConfig{Seed: 7, Workers: 1, Warehouse: base}); err != nil {
		t.Fatalf("RunDurable: %v", err)
	}
	want := warehouseBytes(base)
	for _, workers := range []int{2, 8} {
		path := filepath.Join(dir, fmt.Sprintf("w%d.whs", workers))
		if _, err := RunDurable(DurableConfig{Seed: 7, Workers: workers, Warehouse: path}); err != nil {
			t.Fatalf("RunDurable at %d workers: %v", workers, err)
		}
		if !bytes.Equal(warehouseBytes(path), want) {
			t.Fatalf("warehouse differs at %d workers", workers)
		}
	}
	resumed := filepath.Join(dir, "resumed.whs")
	if _, err := RunDurable(DurableConfig{Seed: 7, Workers: 2, Warehouse: resumed, HaltAfter: 4}); err != nil {
		t.Fatalf("halted run: %v", err)
	}
	if _, err := RunDurable(DurableConfig{Seed: 7, Workers: 8, Warehouse: resumed, Resume: true}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(warehouseBytes(resumed), want) {
		t.Fatalf("warehouse differs after halt-then-resume")
	}
}

// TestUnrecoveredEpisodeChargesNoMTTR runs the disk-full row with a heal
// that leaves the hostile tenant in place: the resume fails, the episode
// does not recover, and its time must stay out of MTTRTotal, which MTTR
// divides by the recovered episodes alone.
func TestUnrecoveredEpisodeChargesNoMTTR(t *testing.T) {
	row := durableFault{every: -1, at: durableOps / 2,
		hit:  strikeNext(func(env *simenv.Env) error { return env.Disk().FillFrom("other-tenant", 8) }),
		want: simenv.ErrDiskFull, heal: transient, op: "append-enospc"}
	arm := DurableArm{Name: "disk-full-unhealed", Class: "EDN"}
	if err := storeArm(row)(&arm, 7); err != nil {
		t.Fatalf("run: %v", err)
	}
	if arm.Episodes != 1 || arm.RecoveredEpisodes != 0 {
		t.Fatalf("episodes %d, recovered %d; want 1 unrecovered", arm.Episodes, arm.RecoveredEpisodes)
	}
	if arm.MTTRTotal != 0 || arm.MTTR() != 0 {
		t.Fatalf("unrecovered episode charged MTTRTotal %v", arm.MTTRTotal)
	}
	// The refused resume keeps the acknowledged prefix intact.
	if arm.Acked != durableOps/2 || arm.Recovered != durableOps/2 || arm.UndetectedCorruption != 0 {
		t.Fatalf("acked %d, recovered %d, corruption %d; want the intact prefix of %d",
			arm.Acked, arm.Recovered, arm.UndetectedCorruption, durableOps/2)
	}
	if len(arm.Eps) != 1 || arm.Eps[0].Recovered || arm.Eps[0].End <= arm.Eps[0].Start {
		t.Fatalf("episode record %+v", arm.Eps)
	}
	if err := (&DurableReport{Arms: []DurableArm{arm}}).Check(); err == nil {
		t.Fatal("gate passed an unrecovered episode")
	}
}
