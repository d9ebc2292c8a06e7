package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/durable"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/warehouse"
)

// Metric names of the DURABLE experiment; the catalogue entry lives in
// OBSERVABILITY.md.
const (
	// MetricDurableEpisodes counts closed DURABLE fault episodes by outcome.
	MetricDurableEpisodes = "faultstudy_durable_episodes_total"
	// MetricDurableAckedLost counts acknowledged records silently missing
	// after recovery — the loss class the experiment gates at zero.
	MetricDurableAckedLost = "faultstudy_durable_acked_lost_total"
	// MetricDurableDetectedLoss counts acknowledged records whose loss the
	// recovery path detected and reported (the torn-write device lie).
	MetricDurableDetectedLoss = "faultstudy_durable_detected_loss_total"
	// MetricDurableRepairs counts tail truncations recovery performed over
	// torn or corrupt log bytes.
	MetricDurableRepairs = "faultstudy_durable_repairs_total"
	// MetricDurableMTTRSeconds is the per-episode repair-time histogram
	// (fault detection to store recovered and writable, virtual clock).
	MetricDurableMTTRSeconds = "faultstudy_durable_mttr_seconds"
)

// The experiment's fixed workload and virtual-time model.
const (
	// durableOwner and durableDir root the store every non-app arm drives.
	durableOwner = "durablelab"
	durableDir   = "/var/durablelab"
	// durableCrashOps is the workload length of the crash-matrix arms; every
	// write boundary it produces (including the checkpoint writes forced by
	// durableCrashCkptEvery) hosts one crash episode.
	durableCrashOps       = 18
	durableCrashCkptEvery = 6
	// durableOps is the workload length of the environmental-fault arms.
	durableOps = 24
	// durableDetect is the failure-detection latency charged to every
	// episode, and durableRestart the cost of replacing the process before
	// recovery (durable.Open) runs.
	durableDetect  = 100 * time.Millisecond
	durableRestart = 500 * time.Millisecond
)

// DurableConfig tunes the DURABLE experiment.
type DurableConfig struct {
	// Seed drives every arm's environment stream.
	Seed int64
	// Telemetry, when non-nil, receives per-episode traces and the durable
	// metric family, derived from the finished arms in fixed arm order — so
	// resumed and uninterrupted runs emit byte-identical telemetry.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports and telemetry
	// are byte-identical at every worker count.
	Workers int
	// Warehouse, when non-empty, is the resumable result store: every
	// finished arm is durably recorded there before the sweep moves on.
	Warehouse string
	// Resume preloads finished arms from the warehouse instead of rerunning
	// them; with an empty warehouse it is a full run.
	Resume bool
	// HaltAfter, when positive, runs only that many missing arms (serially)
	// and then halts — the harness-kill half of the resume-equivalence
	// check.
	HaltAfter int
}

// DurableEpisode is one fault-recovery episode of an arm, kept in the arm
// record so traces and histograms can be re-derived from warehoused arms.
type DurableEpisode struct {
	// Op names the failing operation (e.g. "crash@007").
	Op string
	// Note is the activation detail recorded on the episode.
	Note string
	// Start and End bound the episode on the arm's virtual clock.
	Start, End time.Duration
	// Recovered reports whether the store came back consistent and writable.
	Recovered bool
}

// DurableArm is one fault-injection cell of the DURABLE experiment.
type DurableArm struct {
	// Name is the arm's fault condition.
	Name string
	// Class buckets the condition: "none", "crash", "EDN", "EDT", or "app".
	Class string
	// Boundaries is the number of write boundaries the crash matrix
	// enumerated (crash arms only).
	Boundaries int
	// Crashes is the number of injected process crashes.
	Crashes int
	// Acked is the total number of acknowledged records across episodes.
	Acked int
	// Recovered is how many acknowledged records were present after
	// recovery.
	Recovered int
	// SilentLoss counts acknowledged records missing after recovery without
	// the recovery path reporting damage — gated at zero everywhere.
	SilentLoss int
	// DetectedLoss counts acknowledged records lost to detected, reported
	// damage — allowed only in the torn-write arm, where the device lies.
	DetectedLoss int
	// UndetectedCorruption counts recoveries that returned a state different
	// from any acknowledged prefix without reporting damage — gated at zero.
	UndetectedCorruption int
	// Repairs counts tail truncations performed over damaged log bytes.
	Repairs int
	// Episodes and RecoveredEpisodes count fault episodes and those whose
	// store came back consistent and writable.
	Episodes, RecoveredEpisodes int
	// MTTRTotal accumulates repair time over recovered episodes.
	MTTRTotal time.Duration
	// Eps holds the per-episode records telemetry is derived from.
	Eps []DurableEpisode
}

// MTTR is the arm's mean time to repair over recovered episodes (0 when
// nothing recovered).
func (a DurableArm) MTTR() time.Duration {
	if a.RecoveredEpisodes == 0 {
		return 0
	}
	return a.MTTRTotal / time.Duration(a.RecoveredEpisodes)
}

// DurableReport is the assembled experiment, arms in fixed order.
type DurableReport struct {
	// Seed is the experiment's root seed.
	Seed int64
	// Arms holds every fault-condition cell, in durableArms order.
	Arms []DurableArm
	// Halted is true when HaltAfter stopped the sweep early; the report then
	// carries no arms and gates nothing — resume to finish.
	Halted bool
	// Done and Total count warehoused arms at the halt (Halted only).
	Done, Total int
}

// durableArms is the fixed arm axis, in report order: each arm's name, its
// class, and its run func, a pure function of the seed that fills the arm
// and shares no state with other arms. The store arms are rows of one fault
// table run by runFault; the crash matrix runs one row per write boundary.
var durableArms = []struct {
	name, class string
	run         func(a *DurableArm, seed int64) error
}{
	{"none", "none", storeArm(durableFault{every: durableCrashCkptEvery, at: durableOps, hit: noFault,
		op: "clean-reopen", note: "clean close and reopen"})},
	{"crash-drop", "crash", func(a *DurableArm, seed int64) error { return a.runCrashMatrix(seed, 0) }},
	{"crash-tear", "crash", func(a *DurableArm, seed int64) error { return a.runCrashMatrix(seed, 3) }},
	{"disk-full", "EDN", storeArm(durableFault{every: -1, at: durableOps / 2,
		// The margin is smaller than any WAL record, so the next append
		// genuinely hits the full partition.
		hit: strikeNext(func(env *simenv.Env) error {
			return env.Disk().FillFrom("other-tenant", 8) //faultlint:ignore envcheck staging the hostile environment is the point
		}),
		want: simenv.ErrDiskFull, heal: func(env *simenv.Env, _ *durable.Store) error {
			env.Disk().RemoveOwner("other-tenant")
			return nil
		}, op: "append-enospc"})},
	{"fd-exhaustion", "EDN", storeArm(durableFault{env: []simenv.Option{simenv.WithFDLimit(8)}, at: -1,
		hit: func(env *simenv.Env, _ *durable.Store, _ [][]durable.Op) error {
			for {
				if _, err := env.FDs().Open("competitor"); err != nil {
					break
				}
			}
			st, _, err := durable.Open(env, durableOwner, durableDir, durable.Options{})
			if err == nil {
				st.Close()
			}
			return err
		},
		want: simenv.ErrFDExhausted, heal: func(env *simenv.Env, _ *durable.Store) error {
			env.FDs().ReleaseOwner("competitor")
			return nil
		}, op: "open-emfile"})},
	// The uncompacted log grows into the per-file limit; the heal is
	// compaction (checkpoint + log truncation), and under a cap this small
	// the condition recurs, so the resume compacts again whenever it bites.
	{"file-limit", "EDN", storeArm(durableFault{env: []simenv.Option{simenv.WithMaxFileSize(512)}, every: -1,
		hit: func(_ *simenv.Env, st *durable.Store, rest [][]durable.Op) error {
			_, err := applyAll(st, rest)
			return err
		},
		want: simenv.ErrFileTooLarge, heal: func(_ *simenv.Env, st *durable.Store) error { return st.Checkpoint() },
		op: "append-efbig"})},
	// Transient device faults: the heal is nothing at all — the store
	// repairs its own tail before retrying the same record.
	{"short-write", "EDT", storeArm(durableFault{every: -1, at: durableOps / 2,
		hit:  strikeNext(func(env *simenv.Env) error { env.Disk().ArmShortWrite(3); return nil }),
		want: simenv.ErrShortWrite, heal: transient, op: "append-short"})},
	{"sync-fail", "EDT", storeArm(durableFault{every: -1, at: durableOps / 2,
		hit:  strikeNext(func(env *simenv.Env) error { env.Disk().ArmSyncFail(); return nil }),
		want: simenv.ErrIOFault, heal: transient, op: "append-sync"})},
	// The silent device lie: the last record's write is torn while
	// reporting success, so the store acknowledges a record the disk never
	// fully held. The loss is unavoidable — the gate is that reopening
	// DETECTS it rather than serving corrupt state.
	{"torn-write", "EDT", storeArm(durableFault{every: -1, at: durableOps - 1,
		hit: strikeNext(func(env *simenv.Env) error { env.Disk().ArmTornWrite(2); return nil }),
		op:  "torn-ack", note: "write torn to 2 bytes while reporting success"})},
	// A crash at the checkpoint commit point: recovery must sweep the
	// temporary, keep the old checkpoint, and replay the full log.
	{"crash-before-rename", "crash", storeArm(durableFault{every: -1, at: durableOps / 2,
		hit: func(env *simenv.Env, st *durable.Store, rest [][]durable.Op) error {
			// Stage an old checkpoint behind a log tail, then crash the next
			// checkpoint before its rename lands.
			if err := st.Checkpoint(); err != nil {
				return err
			}
			if _, err := applyAll(st, rest); err != nil {
				return err
			}
			env.Disk().ArmCrashBeforeRename()
			return st.Checkpoint()
		},
		want: simenv.ErrDiskCrashed, inFlight: 1,
		op: "ckpt-commit-crash", note: "crashed before the checkpoint rename landed"})},
	{"app-sqldb-restore", "app", runDurableSQLArm},
	{"app-cache-reboot", "app", runDurableCacheArm},
}

// durableArmKey is an arm's record key in the warehouse.
func durableArmKey(idx int, name string) string {
	return fmt.Sprintf("arm/%02d-%s", idx, name)
}

// RunDurable runs the DURABLE experiment: a kill-at-every-write-boundary
// crash matrix and the environmental fault catalogue (disk-full, descriptor
// exhaustion, file-size limit, short write, sync failure, torn write,
// crash-before-rename) against the WAL + checkpoint store, plus restore and
// persist-reboot probes of the two store-backed applications. Every episode
// crashes or wounds the store, recovers it through durable.Open, and
// verifies the recovered state against the acknowledged-prefix model —
// scoring silent loss (gated at zero), detected loss, undetected corruption
// (gated at zero), repairs, and MTTR.
//
// Arms are independent shards: each derives its seed from (Seed, arm index)
// alone, and traces and metrics are derived from the finished arm records in
// fixed arm order — so reports and telemetry are byte-identical at every
// worker count, and identical whether the sweep ran uninterrupted or was
// killed and resumed from the warehouse.
func RunDurable(cfg DurableConfig) (*DurableReport, error) {
	var wh *warehouse.Warehouse
	if cfg.Warehouse != "" {
		if !cfg.Resume {
			// A fresh sweep starts from a fresh warehouse; stale arms from a
			// previous run must not leak into this one.
			if err := os.Remove(cfg.Warehouse); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("experiment: durable: reset warehouse: %w", err)
			}
		}
		var err error
		wh, _, err = warehouse.Open(cfg.Warehouse)
		if err != nil {
			return nil, fmt.Errorf("experiment: durable: %w", err)
		}
		defer wh.Close()
	}
	// Preload the warehoused arms; the rest are missing. Halting, resuming
	// and a full run all run the missing arms through the one path below.
	arms := make([]DurableArm, len(durableArms))
	var missing []int
	for i, a := range durableArms {
		if wh != nil && cfg.Resume {
			if raw, ok := wh.Get(durableArmKey(i, a.name)); ok {
				if err := json.Unmarshal(raw, &arms[i]); err != nil {
					return nil, fmt.Errorf("experiment: durable: warehouse arm %s: %w", a.name, err)
				}
				continue
			}
		}
		missing = append(missing, i)
	}
	preloaded := len(durableArms) - len(missing)
	workers := cfg.Workers
	if cfg.HaltAfter > 0 {
		if len(missing) > cfg.HaltAfter {
			missing = missing[:cfg.HaltAfter]
		}
		workers = 1
	}
	// Arm k of the run records itself only after arm k-1 has, so the
	// warehouse file holds arms in arm order at every worker count.
	// parallel.ForEach hands shards out in index order, so the wait never
	// deadlocks; the deferred close releases the successor even when an arm
	// fails or panics.
	var turns []chan struct{}
	if wh != nil {
		turns = make([]chan struct{}, len(missing)+1)
		for k := range turns {
			turns[k] = make(chan struct{})
		}
		close(turns[0])
	}
	ran, err := runArms(workers, len(missing), nil, func(k int, _ *Telemetry) (DurableArm, error) {
		i := missing[k]
		if wh != nil {
			defer func() { <-turns[k]; close(turns[k+1]) }()
		}
		arm := DurableArm{Name: durableArms[i].name, Class: durableArms[i].class}
		err := durableArms[i].run(&arm, parallel.Derive(cfg.Seed, uint64(i)))
		if err != nil || wh == nil {
			return arm, err
		}
		raw, err := json.Marshal(arm)
		if err != nil {
			return arm, fmt.Errorf("experiment: durable: encode arm %s: %w", arm.Name, err)
		}
		<-turns[k]
		if err := wh.Put(durableArmKey(i, arm.Name), raw); err != nil {
			return arm, fmt.Errorf("experiment: durable: %w", err)
		}
		return arm, nil
	})
	if err != nil {
		return nil, err
	}
	for k, i := range missing {
		arms[i] = ran[k]
	}
	if cfg.HaltAfter > 0 {
		return &DurableReport{Seed: cfg.Seed, Halted: true, Done: preloaded + len(missing), Total: len(durableArms)}, nil
	}
	deriveDurableTelemetry(cfg.Telemetry, arms)
	return &DurableReport{Seed: cfg.Seed, Arms: arms}, nil
}

// deriveDurableTelemetry replays the finished arm records into the
// experiment's telemetry, in fixed arm order. Deriving after the sweep —
// rather than recording during it — is what makes traces and metrics
// invariant under worker count and resume.
func deriveDurableTelemetry(tel *Telemetry, arms []DurableArm) {
	if tel == nil {
		return
	}
	for _, a := range arms {
		mech := "durable/" + a.Name
		tel.Recorder.SetContext(obsv.Context{App: "durable", FaultID: mech, Class: a.Class})
		labels := obsv.L("arm", a.Name, "class", a.Class)
		for _, ep := range a.Eps {
			tel.Recorder.Begin(ep.Start, ep.Op, mech)
			tel.Recorder.Note(ep.Start, obsv.Span{Kind: obsv.SpanActivation, Note: ep.Note})
			outcome := obsv.OutcomeLost
			if ep.Recovered {
				outcome = obsv.OutcomeRecovered
				tel.Registry.Histogram(MetricDurableMTTRSeconds, obsv.LatencyBuckets, labels...).
					ObserveDuration(ep.End - ep.Start)
			}
			tel.Recorder.Note(ep.End, obsv.Span{Kind: obsv.SpanAction, Rung: "reopen", Attempt: 1, Outcome: outcome})
			tel.Recorder.End(ep.End, outcome, "reopen")
			tel.Registry.Counter(MetricDurableEpisodes,
				obsv.L("arm", a.Name, "class", a.Class, "outcome", outcome)...).Inc()
		}
		if a.SilentLoss > 0 {
			tel.Registry.Counter(MetricDurableAckedLost, labels...).Add(float64(a.SilentLoss))
		}
		if a.DetectedLoss > 0 {
			tel.Registry.Counter(MetricDurableDetectedLoss, labels...).Add(float64(a.DetectedLoss))
		}
		if a.Repairs > 0 {
			tel.Registry.Counter(MetricDurableRepairs, labels...).Add(float64(a.Repairs))
		}
	}
}

// durableWorkload builds the deterministic record-batch sequence every store
// arm applies: a mix of single puts, overwrite-heavy keys, multi-op batches,
// and deletes, sized so checkpoints, torn tails, and rollbacks all have
// something to bite on. Batch i carries sequence number i+1.
func durableWorkload(n int) [][]durable.Op {
	batches := make([][]durable.Op, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i%7)
		val := []byte(fmt.Sprintf("v%04d-%s", i, strings.Repeat("x", i%13)))
		switch {
		case i%11 == 10:
			batches = append(batches, []durable.Op{{Kind: durable.OpDelete, Key: key}})
		case i%5 == 4:
			batches = append(batches, []durable.Op{
				{Kind: durable.OpPut, Key: key, Value: val},
				{Kind: durable.OpPut, Key: "pair-" + key, Value: val},
			})
		default:
			batches = append(batches, []durable.Op{{Kind: durable.OpPut, Key: key, Value: val}})
		}
	}
	return batches
}

// applyAll applies batches in order until one fails, returning how many
// were acknowledged and the failure.
func applyAll(st *durable.Store, batches [][]durable.Op) (acked int, err error) {
	for _, b := range batches {
		if err := st.Apply(b); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, nil
}

// detect opens an episode at the environment's current time, charges the
// failure-detection latency, and counts the episode on the arm.
func (a *DurableArm) detect(env *simenv.Env, op, note string) DurableEpisode {
	ep := DurableEpisode{Op: op, Note: note, Start: env.Monotonic()}
	env.Advance(durableDetect)
	a.Episodes++
	return ep
}

// endEpisode closes ep at the environment's current time and files it on the
// arm. Only a recovered episode counts as recovered and charges its repair
// time to MTTRTotal, so MTTR averages over exactly the episodes it sums.
func (a *DurableArm) endEpisode(ep DurableEpisode, env *simenv.Env) {
	ep.End = env.Monotonic()
	if ep.Recovered {
		a.RecoveredEpisodes++
		a.MTTRTotal += ep.End - ep.Start
	}
	a.Eps = append(a.Eps, ep)
}

// durableFault is one row of the store arms' fault table: the environment,
// the point the fault strikes, the typed error it must surface, and how the
// episode recovers.
type durableFault struct {
	// env are the environment's options and every the store's checkpoint
	// cadence (durable.Options.CheckpointEvery).
	env   []simenv.Option
	every int
	// at is the number of batches applied before the fault; -1 means the
	// fault breaks durable.Open itself, so hit runs before any store exists.
	at int
	// hit stages the fault and runs the step it breaks over the batches
	// after the prefix; that step must fail with want (nil: a silent fault).
	hit  func(env *simenv.Env, st *durable.Store, rest [][]durable.Op) error
	want error
	// heal, when set, repairs the environment so the workload resumes on
	// the live store; when nil the process is replaced and the store
	// reopened through durable.Open.
	heal func(env *simenv.Env, st *durable.Store) error
	// inFlight (0 or 1) is how many unacknowledged records the reopened
	// store may legitimately hold beyond the acknowledged prefix.
	inFlight int
	// op and note label the episode; a healed row with no note records the
	// typed error's text.
	op, note string
}

// storeArm runs one fault-table row over the environmental-fault workload.
func storeArm(r durableFault) func(*DurableArm, int64) error {
	return func(a *DurableArm, seed int64) error {
		return a.runFault(r, seed, durableWorkload(durableOps))
	}
}

// noFault is the control row's hit: nothing breaks.
func noFault(*simenv.Env, *durable.Store, [][]durable.Op) error { return nil }

// transient is the heal of a one-shot device fault: nothing to repair.
func transient(*simenv.Env, *durable.Store) error { return nil }

// strikeNext stages a fault and applies the next record into it.
func strikeNext(stage func(env *simenv.Env) error) func(*simenv.Env, *durable.Store, [][]durable.Op) error {
	return func(env *simenv.Env, st *durable.Store, rest [][]durable.Op) error {
		if err := stage(env); err != nil {
			return err
		}
		return st.Apply(rest[0])
	}
}

// runFault is the one episode driver of the store arms: on a fresh
// environment it opens the store, applies the first r.at batches, strikes
// (the struck step must fail with r.want), and then either heals and resumes
// on the live store or replaces the process and reopens.
func (a *DurableArm) runFault(r durableFault, seed int64, batches [][]durable.Op) error {
	env := simenv.New(seed, r.env...)
	opts := durable.Options{CheckpointEvery: r.every}
	var st *durable.Store
	if r.at >= 0 {
		var err error
		if st, _, err = durable.Open(env, durableOwner, durableDir, opts); err != nil {
			return err
		}
		defer st.Close()
		if _, err := applyAll(st, batches[:r.at]); err != nil {
			return fmt.Errorf("experiment: durable %s: %w", a.Name, err)
		}
	}
	ferr := r.hit(env, st, batches[max(r.at, 0):])
	if !errors.Is(ferr, r.want) {
		return fmt.Errorf("experiment: durable %s: want %v, got %v", a.Name, r.want, ferr)
	}
	if r.heal == nil {
		if env.Disk().Crashed() {
			a.Crashes++
		}
		a.verifyReopen(r, env, st, opts, batches)
		return nil
	}
	note := r.note
	if note == "" {
		note = ferr.Error()
	}
	a.resume(r, env, st, opts, batches, a.detect(env, r.op, note))
	return nil
}

// resume heals ep's fault, resumes the workload where the store's
// acknowledged prefix ends — healing and retrying a record once when the
// fault recurs — and scores the episode. Whether or not the workload
// finished, the store must hold exactly the model's state at its sequence
// number; the episode recovers only if every record was acknowledged.
func (a *DurableArm) resume(r durableFault, env *simenv.Env, st *durable.Store, opts durable.Options,
	batches [][]durable.Op, ep DurableEpisode) {
	err := r.heal(env, st)
	if err == nil && st == nil {
		if st, _, err = durable.Open(env, durableOwner, durableDir, opts); err == nil {
			defer st.Close()
		}
	}
	if err == nil {
		for _, b := range batches[st.Seq():] {
			if err = st.Apply(b); errors.Is(err, r.want) {
				if err = r.heal(env, st); err == nil {
					err = st.Apply(b)
				}
			}
			if err != nil {
				break
			}
		}
	}
	if st != nil {
		seq := st.Seq()
		a.Repairs += int(st.Stats().Repairs)
		a.Acked += int(seq)
		if durable.StateEqual(st, durable.ModelAt(batches, seq)) {
			a.Recovered += int(seq)
			ep.Recovered = err == nil
		} else {
			a.UndetectedCorruption++
		}
	}
	a.endEpisode(ep, env)
}

// verifyReopen closes the damaged store handle, replaces the process on the
// virtual clock, recovers through durable.Open, and scores the episode: the
// recovered sequence number must cover every record the old handle
// acknowledged, may exceed it only by r.inFlight records the crash
// preserved, the state must match the acknowledged-prefix model at that
// sequence, and the store must accept a fresh append.
func (a *DurableArm) verifyReopen(r durableFault, env *simenv.Env, old *durable.Store, opts durable.Options,
	batches [][]durable.Op) {
	acked := int(old.Seq())
	ep := a.detect(env, r.op, r.note)
	env.Disk().ClearCrash()
	old.Close()
	env.Advance(durableRestart)
	a.Acked += acked
	st, info, err := durable.Open(env, durableOwner, durableDir, opts)
	if err != nil {
		a.endEpisode(ep, env)
		return
	}
	defer st.Close()
	if info.TruncatedBytes > 0 {
		a.Repairs++
	}
	seq := st.Seq()
	a.Recovered += min(int(seq), acked)
	if seq < uint64(acked) {
		// Acknowledged records are missing. Reported damage makes it
		// detected loss (tolerable only where the device lied); silence is
		// the loss class the experiment exists to rule out.
		if info.TornTail || info.Corrupt {
			a.DetectedLoss += acked - int(seq)
		} else {
			a.SilentLoss += acked - int(seq)
		}
	}
	if seq > uint64(acked+r.inFlight) || !durable.StateEqual(st, durable.ModelAt(batches, seq)) {
		a.UndetectedCorruption++
	} else {
		// Recovery must hand back a writable store, not just a readable one.
		ep.Recovered = st.Put("post-recovery", []byte("ok")) == nil
	}
	a.endEpisode(ep, env)
}

// runCrashMatrix kills the crash workload at every one of its write
// boundaries, one row per boundary, with unsynced tails torn to keepTail
// bytes; each episode replaces the process and reopens.
func (a *DurableArm) runCrashMatrix(seed int64, keepTail int64) error {
	batches := durableWorkload(durableCrashOps)
	// Dry run on a pristine environment to enumerate the workload's write
	// boundaries (WAL appends, syncs, and every checkpoint step).
	dry := simenv.New(seed)
	st, _, err := durable.Open(dry, durableOwner, durableDir, durable.Options{CheckpointEvery: durableCrashCkptEvery})
	if err != nil {
		return err
	}
	if _, err := applyAll(st, batches); err != nil {
		return fmt.Errorf("experiment: durable crash dry run: %w", err)
	}
	st.Close()
	a.Boundaries = int(dry.Disk().WriteOps())
	for b := 0; b < a.Boundaries; b++ {
		err := a.runFault(durableFault{every: durableCrashCkptEvery,
			hit: func(env *simenv.Env, st *durable.Store, rest [][]durable.Op) error {
				env.Disk().ScheduleCrash(b, keepTail)
				_, err := applyAll(st, rest)
				if err == nil && env.Disk().Crashed() {
					// The workload finished, but the crash fired in a
					// post-acknowledgement checkpoint step of the final record.
					err = simenv.ErrDiskCrashed
				}
				return err
			},
			want: simenv.ErrDiskCrashed, inFlight: 1,
			op:   fmt.Sprintf("crash@%03d", b),
			note: fmt.Sprintf("killed at write boundary %d, tails torn to %d bytes", b, keepTail),
		}, seed, batches)
		if err != nil {
			return err
		}
	}
	return nil
}

// runDurableSQLArm probes the database's restore rung over the WAL-backed
// engine: snapshot, more writes, a crash, then Restore — which must take the
// log-rollback path (not the logical JSON rebuild) and land exactly on the
// snapshot's rows.
func runDurableSQLArm(a *DurableArm, seed int64) error {
	env := simenv.New(seed)
	srv := sqldb.New(env, faultinject.NewSet())
	if err := srv.Start(); err != nil {
		return err
	}
	exec := func(sql string) error {
		_, err := srv.Exec(sql)
		return err
	}
	if err := exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			return err
		}
	}
	snap, err := srv.Snapshot()
	if err != nil {
		return err
	}
	for i := 3; i < 5; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			return err
		}
	}
	ep := a.detect(env, "restore-rollback", "process replaced; restoring the pre-fault snapshot")
	srv.Stop()
	env.Advance(durableRestart)
	a.Acked += 3 // the snapshot's rows are the acknowledged state to recover
	if err := srv.Restore(snap); err != nil {
		a.endEpisode(ep, env)
		return nil
	}
	rs, err := srv.Exec("SELECT id FROM t")
	rows := 0
	if err == nil {
		rows = len(rs.Rows)
	}
	if srv.WALReplays() == 1 && rows == 3 {
		a.Recovered += 3
		ep.Recovered = true
	} else if rows != 3 {
		a.SilentLoss += 3 - rows
	}
	a.endEpisode(ep, env)
	srv.Stop()
	return nil
}

// runDurableCacheArm probes the cache's persist component: kill it
// (crash-only: the store closes with no flush), restart it (real recovery
// over whatever the kill left), and verify every acknowledged SET is in the
// recovered store.
func runDurableCacheArm(a *DurableArm, seed int64) error {
	env := simenv.New(seed)
	srv := cache.New(env, faultinject.NewSet(), cache.Config{})
	c := cache.Componentize(srv)
	if err := c.Start(); err != nil {
		return err
	}
	defer c.Stop()
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i, k := range keys {
		if err := srv.Set(k, fmt.Sprintf("v%d", i)); err != nil {
			return err
		}
	}
	start := env.Monotonic()
	err := c.Tree().Reboot(cache.CompPersist, false, func(time.Duration) { env.Advance(durableDetect) })
	ep := DurableEpisode{Op: "persist-reboot", Note: "persist component crash-stopped and restarted", Start: start}
	a.Episodes++
	a.Acked += len(keys)
	if err == nil {
		st := srv.DurableStore()
		got := 0
		for i, k := range keys {
			if v, ok := st.Get(k); ok && string(v) == fmt.Sprintf("v%d", i) {
				got++
			}
		}
		a.Recovered += got
		a.SilentLoss += len(keys) - got
		ep.Recovered = got == len(keys)
	}
	a.endEpisode(ep, env)
	return nil
}

// Check asserts the experiment's headline claims: every episode recovered;
// zero acknowledged records lost silently and zero undetected corruption
// anywhere in the crash matrix or the fault catalogue; detected loss only
// where the device lied about a write (and there it must be detected); and
// the crash matrix actually enumerated boundaries.
func (r *DurableReport) Check() error {
	if r.Halted {
		return nil
	}
	for _, a := range r.Arms {
		if a.SilentLoss > 0 {
			return fmt.Errorf("experiment: durable check: %s: %d acknowledged records silently lost", a.Name, a.SilentLoss)
		}
		if a.UndetectedCorruption > 0 {
			return fmt.Errorf("experiment: durable check: %s: %d undetected corruptions", a.Name, a.UndetectedCorruption)
		}
		if a.Episodes == 0 {
			return fmt.Errorf("experiment: durable check: %s: no episodes ran", a.Name)
		}
		if a.RecoveredEpisodes != a.Episodes {
			return fmt.Errorf("experiment: durable check: %s: %d of %d episodes unrecovered",
				a.Name, a.Episodes-a.RecoveredEpisodes, a.Episodes)
		}
		switch a.Name {
		case "torn-write":
			if a.DetectedLoss == 0 {
				return fmt.Errorf("experiment: durable check: %s: the device lie went undetected", a.Name)
			}
		default:
			if a.DetectedLoss > 0 {
				return fmt.Errorf("experiment: durable check: %s: %d records lost to detected damage", a.Name, a.DetectedLoss)
			}
		}
		if a.Class == "crash" && a.Name != "crash-before-rename" && a.Boundaries == 0 {
			return fmt.Errorf("experiment: durable check: %s: no write boundaries enumerated", a.Name)
		}
		if a.MTTRTotal <= 0 {
			return fmt.Errorf("experiment: durable check: %s: no repair time accumulated", a.Name)
		}
	}
	return nil
}

// String renders the per-arm matrix and the headline.
func (r *DurableReport) String() string {
	var b strings.Builder
	if r.Halted {
		fmt.Fprintf(&b, "DURABLE experiment (seed %d): halted with %d/%d arms warehoused; rerun with -resume to finish.\n",
			r.Seed, r.Done, r.Total)
		return b.String()
	}
	fmt.Fprintf(&b, "DURABLE experiment (seed %d, %d arms):\n", r.Seed, len(r.Arms))
	tbl := &stats.Table{Header: []string{
		"arm", "class", "episodes", "recovered", "crashes", "acked", "silent-loss", "detected-loss", "repairs", "mttr"}}
	for _, a := range r.Arms {
		tbl.Add(a.Name, a.Class,
			fmt.Sprint(a.Episodes),
			fmt.Sprintf("%d/%d", a.RecoveredEpisodes, a.Episodes),
			fmt.Sprint(a.Crashes),
			fmt.Sprint(a.Acked),
			fmt.Sprint(a.SilentLoss),
			fmt.Sprint(a.DetectedLoss),
			fmt.Sprint(a.Repairs),
			mrebootMTTRCell(a.MTTR()))
	}
	b.WriteString(tbl.String())
	var crashes, acked, silent, detected int
	for _, a := range r.Arms {
		crashes += a.Crashes
		acked += a.Acked
		silent += a.SilentLoss
		detected += a.DetectedLoss
	}
	fmt.Fprintf(&b,
		"\nHeadline: %d injected crashes and device faults over %d acknowledged records lost %d\nof them silently and corrupted none undetected; the one deliberate device lie was caught\nand bounded to %d record(s). Recovery IS the startup path: every reopen replays the log.\n",
		crashes, acked, silent, detected)
	return b.String()
}
