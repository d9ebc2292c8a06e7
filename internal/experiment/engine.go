package experiment

import (
	"fmt"

	"faultstudy/internal/corpus"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/recovery"
	"faultstudy/internal/supervise"
)

// This file is the parallel experiment engine: every sweep is a list of
// independent arms run by runArms over a bounded worker pool
// (internal/parallel). The determinism contract is worker-count invariance —
// every report, trace, timeline, and metrics dump an N-worker run produces is
// byte-identical to the 1-worker (serial) run — and it holds because:
//
//   - each arm has its own freshly seeded environment, application instance,
//     and supervisor: no arm shares mutable state with another (verified
//     under -race);
//   - every seed an arm uses is a pure function of the root seed and the
//     arm's position, never of scheduling (see parallel.Derive for the
//     SplitMix64 derivation used where arms need private streams); each
//     sweep keeps its own derivation, because changing one shifts its
//     outputs;
//   - each arm writes into its own telemetry, and runArms reduces them in arm
//     order with Telemetry.Merge, which reproduces exactly what a serial run
//     sharing one telemetry would have recorded;
//   - results land in index-addressed slots, so presentation order is arm
//     order regardless of completion order.

// runArms runs arm(i, ·) for every i in [0, n) on a pool of workers (≤ 0
// means one per processor) and returns the results in arm order. When tel is
// non-nil each arm records into a private telemetry, merged into tel in arm
// order once every arm has finished; when tel is nil the arms get nil and no
// telemetry is created.
func runArms[A any](workers, n int, tel *Telemetry, arm func(i int, tel *Telemetry) (A, error)) ([]A, error) {
	var tels []*Telemetry
	if tel != nil {
		tels = make([]*Telemetry, n)
	}
	out, err := parallel.MapOrdered(workers, n, func(i int) (A, error) {
		var t *Telemetry
		if tels != nil {
			t = NewTelemetry()
			tels[i] = t
		}
		return arm(i, t)
	})
	if err != nil {
		return nil, err
	}
	if err := tel.Merge(tels...); err != nil {
		return nil, err
	}
	return out, nil
}

// RunMatrixWorkers is RunMatrix sharded over a worker pool: every corpus
// fault is one arm, run under every strategy with a fresh environment and
// application. workers ≤ 0 means one worker per processor. The resulting
// matrix is byte-identical at every worker count.
//
// With workers > 1 the policy's Trace hook, if any, is invoked concurrently
// from multiple arms; hooks must be safe for concurrent use.
func RunMatrixWorkers(policy recovery.Policy, seed int64, workers int) (*Matrix, error) {
	faults := corpus.All()
	strategies := recovery.Strategies()
	perFault, err := runArms(workers, len(faults), nil, func(i int, _ *Telemetry) (FaultOutcome, error) {
		f := faults[i]
		mgr := recovery.NewManager(policy)
		fo := FaultOutcome{
			FaultID:   f.ID,
			Mechanism: f.Mechanism,
			Class:     f.Class,
			Survived:  make(map[recovery.Strategy]bool, len(strategies)),
		}
		for si, strat := range strategies {
			app, sc, err := BuildScenario(f.Mechanism, seed+int64(si))
			if err != nil {
				return fo, fmt.Errorf("experiment: %s: %w", f.ID, err)
			}
			out, err := mgr.Run(app, sc, strat)
			if err != nil {
				return fo, fmt.Errorf("experiment: %s under %s: %w", f.ID, strat, err)
			}
			fo.Survived[strat] = out.Survived
		}
		return fo, nil
	})
	if err != nil {
		return nil, err
	}
	return &Matrix{Strategies: strategies, PerFault: perFault}, nil
}

// AddSupervisedWorkers runs every corpus fault's scenario under a supervisor
// and records each verdict in the matrix, adding the paper-extension column
// that compares supervision against the bare one-shot strategies. Every
// fault is one arm with a fresh environment, application, and supervisor.
// When t is non-nil every run is observed under its corpus identity
// (application, fault ID, oracle class), so the recorded episodes carry the
// labels the per-class summary keys on. Output is byte-identical at every
// worker count (workers ≤ 0 means one per processor).
func (m *Matrix) AddSupervisedWorkers(seed int64, cfg supervise.Config, t *Telemetry, workers int) error {
	verdicts, err := runArms(workers, len(m.PerFault), t, func(i int, tel *Telemetry) (SupervisorVerdict, error) {
		fo := m.PerFault[i]
		v, err := runLadder(cfg, tel, obsv.Context{FaultID: fo.FaultID, Class: fo.Class.Short()}, seed, fo.Mechanism, "", "", 0)
		if err != nil {
			return VerdictNone, fmt.Errorf("experiment: supervised %s: %w", fo.FaultID, err)
		}
		return v, nil
	})
	if err != nil {
		return err
	}
	for i, v := range verdicts {
		m.PerFault[i].Supervised = v
	}
	return nil
}
