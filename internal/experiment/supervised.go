package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/stats"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/workload"
)

// SupervisorVerdict grades one supervised run for the matrix: unlike the
// bare strategies' binary survived/lost, the supervisor has a middle outcome
// — everything was served or deliberately shed, but at degraded service.
type SupervisorVerdict int

const (
	// VerdictNone means the supervisor was not run for this fault.
	VerdictNone SupervisorVerdict = iota
	// VerdictServed means every op was served at full service.
	VerdictServed
	// VerdictDegraded means no op was lost but the run ended degraded.
	VerdictDegraded
	// VerdictLost means at least one op was abandoned.
	VerdictLost
)

// String names the verdict.
func (v SupervisorVerdict) String() string {
	switch v {
	case VerdictNone:
		return "-"
	case VerdictServed:
		return "served"
	case VerdictDegraded:
		return "degraded"
	case VerdictLost:
		return "lost"
	default:
		return fmt.Sprintf("SupervisorVerdict(%d)", int(v))
	}
}

// verdictOf grades a supervisor report.
func verdictOf(rep *supervise.Report) SupervisorVerdict {
	switch {
	case !rep.Served():
		return VerdictLost
	case rep.Degraded:
		return VerdictDegraded
	default:
		return VerdictServed
	}
}

// HasSupervised reports whether the supervisor column has been filled in.
func (m *Matrix) HasSupervised() bool {
	for _, fo := range m.PerFault {
		if fo.Supervised != VerdictNone {
			return true
		}
	}
	return false
}

// SupervisedRate returns the not-lost proportion (served or degraded) over
// faults of one class (all classes when class is ClassUnknown), plus how
// many of the hits were degraded.
func (m *Matrix) SupervisedRate(class taxonomy.FaultClass) (p stats.Proportion, degraded int) {
	for _, fo := range m.PerFault {
		if fo.Supervised == VerdictNone {
			continue
		}
		if class != taxonomy.ClassUnknown && fo.Class != class {
			continue
		}
		p.N++
		switch fo.Supervised {
		case VerdictServed:
			p.Hits++
		case VerdictDegraded:
			p.Hits++
			degraded++
		}
	}
	return p, degraded
}

// SoakConfig tunes the sustained-workload soak run.
type SoakConfig struct {
	// Ops is the base workload length per application (0 means 300).
	Ops int
	// Faults is how many seeded mechanisms are activated per application,
	// drawn at random from its catalogue (0 means 3).
	Faults int
	// Seed drives mechanism selection, workloads, and environments.
	Seed int64
	// Supervise tunes the supervisor; its Seed is defaulted from Seed.
	Supervise supervise.Config
	// Telemetry, when non-nil, receives metrics and fault episodes from every
	// application's run — the observability layer's soak wiring. Nil costs
	// nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the three applications are sharded
	// over (0 or negative means one worker per processor; 1 is serial).
	// Results and telemetry are byte-identical at every worker count.
	Workers int
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Ops <= 0 {
		c.Ops = 300
	}
	if c.Faults <= 0 {
		c.Faults = 3
	}
	if c.Supervise.Seed == 0 {
		c.Supervise.Seed = c.Seed
	}
	return c
}

// workloadHook returns the workload-generation hook for the soak's telemetry,
// as a properly nil interface when telemetry is disabled.
func (c SoakConfig) workloadHook() workload.Hook {
	if c.Telemetry == nil {
		return nil
	}
	return c.Telemetry.workloadHook()
}

// SoakResult is one application's soak outcome.
type SoakResult struct {
	// App is the simulated application.
	App taxonomy.Application
	// Mechanisms lists the seeded bugs activated, sorted.
	Mechanisms []string
	// Report is the supervisor's accounting.
	Report *supervise.Report
}

// pickMechanisms draws n distinct mechanism keys for the app from the
// registry with the given generator.
func pickMechanisms(reg *faultinject.Registry, app taxonomy.Application, n int, rng *rand.Rand) []string {
	var keys []string
	for _, mech := range reg.ByApp(app) {
		keys = append(keys, mech.Key)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if n > len(keys) {
		n = len(keys)
	}
	keys = keys[:n]
	sort.Strings(keys)
	return keys
}

// interleave inserts each trigger stream into the base stream at a random
// position at or past min, preserving each stream's internal order.
func interleave(base []supervise.Op, triggers [][]supervise.Op, min int, rng *rand.Rand) []supervise.Op {
	out := base
	for _, ts := range triggers {
		at := min
		if len(out) > min {
			at = min + rng.Intn(len(out)-min+1)
		}
		merged := make([]supervise.Op, 0, len(out)+len(ts))
		merged = append(merged, out[:at]...)
		merged = append(merged, ts...)
		merged = append(merged, out[at:]...)
		out = merged
	}
	return out
}

// runSoakApp drives one application's soak arm end to end: build, start,
// stage the chosen mechanisms, interleave their trigger ops into the base
// workload, and supervise the whole stream. Everything it does is a pure
// function of (cfg, e, rng state, mechs); it shares no state with other
// arms.
func runSoakApp(cfg SoakConfig, e *appEntry, rng *rand.Rand, mechs []string) (*supervise.Report, error) {
	app, scenarios := e.build(cfg.Seed, true, faultinject.NewSet(mechs...))
	base := e.soakOps(cfg, app)
	if err := app.Start(); err != nil {
		return nil, fmt.Errorf("experiment: soak start: %w", err)
	}
	var triggers [][]supervise.Op
	for _, mech := range mechs {
		sc, ok := scenarios[mech]
		if !ok {
			continue
		}
		if sc.Stage != nil {
			sc.Stage()
		}
		triggers = append(triggers, wrapScenarioOps(e.opKind, sc.Ops))
	}
	supCfg, obs := cfg.Telemetry.superviseConfig(cfg.Supervise, soakContext(e.app))
	sup := supervise.New(app, supCfg)
	rep, err := sup.Run(interleave(base, triggers, e.soakMinAt, rng))
	obs.Flush(app.Env().Monotonic())
	return rep, err
}

// RunSoak drives all three applications under sustained workload with a
// random subset of their seeded bugs active — the supervision layer's
// integration exercise. Each application gets a fresh environment, the
// chosen mechanisms' environmental preconditions are staged, their trigger
// ops are interleaved into the base workload at random positions, and the
// supervisor keeps the service running as they fire. Deterministic in Seed.
//
// The applications that soak are independent arms, in catalogue order, run
// on a pool of cfg.Workers workers (0 means one per processor): each arm
// draws its randomness from a source seeded only by (Seed, app), so reports,
// traces, and metric dumps are byte-identical at every worker count.
func RunSoak(cfg SoakConfig) ([]SoakResult, error) {
	cfg = cfg.withDefaults()
	reg := Registry()
	var soaking []*appEntry
	for i := range apps {
		if apps[i].soakOps != nil {
			soaking = append(soaking, &apps[i])
		}
	}
	return runArms(cfg.Workers, len(soaking), cfg.Telemetry, func(i int, tel *Telemetry) (SoakResult, error) {
		e := soaking[i]
		armCfg := cfg
		armCfg.Telemetry = tel
		rng := rand.New(rand.NewSource(cfg.Seed + int64(e.app)))
		mechs := pickMechanisms(reg, e.app, cfg.Faults, rng)
		rep, err := runSoakApp(armCfg, e, rng, mechs)
		if err != nil {
			return SoakResult{}, err
		}
		return SoakResult{App: e.app, Mechanisms: mechs, Report: rep}, nil
	})
}

// RenderSoak formats the soak results, one report per application.
func RenderSoak(results []SoakResult) string {
	var b strings.Builder
	for i, r := range results {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "=== %s soak (%d mechanisms active: %s) ===\n",
			r.App, len(r.Mechanisms), strings.Join(r.Mechanisms, ", "))
		b.WriteString(r.Report.String())
	}
	return b.String()
}
