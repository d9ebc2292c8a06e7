package recovery

import (
	"fmt"
	"time"

	"faultstudy/internal/component"
)

// Rung is one recovery action, ordered from cheapest to most drastic: a
// larger rung discards strictly more state (and loses strictly more
// service) than a smaller one. The order follows the microreboot argument
// (Candea & Fox): try the recovery that preserves the most state and costs
// the least first, and only discard more when the outcome doesn't change.
// internal/supervise walks it as its escalation ladder, internal/recoveryscope
// predicts the cheapest rung that cures a fault, and the SCOPE and SERVE
// sweeps probe every rung in Rungs.
type Rung int

const (
	// RungNone is no rung: the initial failure of an episode, before any
	// recovery, or a fault no rung on the ladder cures (the environment
	// persists across every generic mechanism — the paper's unrecoverable
	// EDN residue). Apply refuses it.
	RungNone Rung = iota
	// RungRetry re-executes the operation in place (restoring the pre-op
	// checkpoint first if the failure killed the application) with a fresh,
	// deliberately perturbed interleaving — Wang93's induced environment
	// change. Survives the transient class.
	RungRetry
	// RungMicroreboot crash-reboots the component the failing mechanism is
	// attributed to while siblings serve. An application with no attributed
	// component is stopped, reclaimed and restored from the pre-op
	// checkpoint instead: a coarse reboot that preserves all logical state.
	RungMicroreboot
	// RungSubtreeReboot is a microreboot that also cycles the target's
	// dependent subtree: crash-stopped in reverse dependency order and
	// restarted forward.
	RungSubtreeReboot
	// RungRestore rolls back to a checkpoint: the failover of process pairs,
	// or the supervisor's epoch checkpoint on the theory that recently
	// accumulated state is what's poisoned.
	RungRestore
	// RungRestart reinitializes the application to pristine state through
	// its application-specific recovery code, discarding everything.
	RungRestart
	// RungDegraded gives up on full service: writes are shed and the
	// application's degraded mode (when it has one) serves reads only. It
	// is a supervision state, not an action: Apply refuses it.
	RungDegraded
)

// rungNames are the rungs' report names, indexed by Rung.
var rungNames = [...]string{"none", "retry", "microreboot", "subtree-reboot", "restore", "restart", "degraded"}

// String names the rung.
func (r Rung) String() string {
	if r >= 0 && int(r) < len(rungNames) {
		return rungNames[r]
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// Rungs returns the five recovery actions in ascending cost order, RungNone
// and RungDegraded excluded: the probe axis of the SCOPE and SERVE sweeps.
func Rungs() []Rung {
	return []Rung{RungRetry, RungMicroreboot, RungSubtreeReboot, RungRestore, RungRestart}
}

// Action is one recovery action for Apply, the executor the paper's
// strategies, rejuvenation, the supervisor's ladder and every experiment
// sweep share.
type Action struct {
	// Rung is the action. A microreboot or subtree reboot of a mechanism no
	// component is attributed to restores Snapshot instead.
	Rung Rung
	// Mechanism is the failing fault mechanism: the component tree's
	// attribution key and the program point Attempt is forced at.
	Mechanism string
	// Attempt is the recovery attempt number, forced as the interleaving
	// choice at Mechanism so successive retries run successive schedules.
	// Zero forces nothing: the retry runs on the fresh schedule alone.
	Attempt int
	// Snapshot is the state a restore reinstates.
	Snapshot []byte
	// ResetOnFail makes a failed restore fall back to a pristine Reset. The
	// restore's error is returned either way.
	ResetOnFail bool
	// KeepResources leaves the stopped process's operating-system resources
	// (descriptors, child processes, bound ports) in place instead of
	// reclaiming them: the ablation of the paper's observation that "the
	// recovery system is likely to kill all processes associated with the
	// application".
	KeepResources bool
}

// Outage charges a recovery action's outage window. For a microreboot it
// runs while the rebooting components are down and their siblings up, with
// the target's name and the tree's reboot cost. An empty component means
// the whole process is down: the hook runs between Stop and the reclaim of
// the process's resources, with zero cost, because the caller prices a
// process bounce itself.
type Outage func(component string, cost time.Duration)

// Apply performs one recovery action, charging its window to outage when
// non-nil, and returns the component a microreboot targeted ("" for
// process-level actions) and the action's error. It then perturbs the
// schedule (Wang93) so a retry never replays the interleaving that just
// failed: forced choices cleared, the scheduler reseeded and, for a
// nonzero Attempt, Attempt forced at Mechanism.
func Apply(app Application, a Action, outage Outage) (string, error) {
	target, err := act(app, a, outage)
	env := app.Env()
	env.Sched().UnforceAll()
	env.Reroll()
	if a.Attempt > 0 {
		env.Sched().Force(a.Mechanism, a.Attempt)
	}
	return target, err
}

// act performs the structural half of an Action.
func act(app Application, a Action, outage Outage) (string, error) {
	reboot := a.Rung == RungMicroreboot || a.Rung == RungSubtreeReboot
	if host, ok := app.(component.Host); ok && reboot {
		if target, attributed := host.ComponentFor(a.Mechanism); attributed {
			// Crash-only: contain the crash and cycle the faulty component
			// while siblings serve.
			host.ContainCrash()
			var window func(time.Duration)
			if outage != nil {
				window = func(cost time.Duration) { outage(target, cost) }
			}
			return target, host.Tree().Reboot(target, a.Rung == RungSubtreeReboot, window)
		}
	}
	switch a.Rung {
	case RungRetry:
		return "", nil
	case RungMicroreboot, RungSubtreeReboot, RungRestore:
		bounce(app, a.KeepResources, outage)
		err := app.Restore(a.Snapshot)
		if err != nil && a.ResetOnFail {
			_ = app.Reset()
		}
		return "", err
	case RungRestart:
		bounce(app, a.KeepResources, outage)
		return "", app.Reset()
	}
	return "", fmt.Errorf("recovery: no action for rung %s", a.Rung)
}

// bounce stops the whole process, charges the outage, then reclaims every
// environment resource the process held unless keep is set.
func bounce(app Application, keep bool, outage Outage) {
	app.Stop()
	if outage != nil {
		outage("", 0)
	}
	if !keep {
		app.Env().ReclaimOwner(app.Name())
	}
}

// Revive brings an application back up after an abandoned episode. A
// running application with every component up is left alone; a component
// tree with a nil snapshot is revived in place. Otherwise the process is
// restored from snapshot, or reset when that fails. It reports no error:
// every caller has already given the episode up, and an application that
// stays down fails its next request, which the caller accounts.
func Revive(app Application, snapshot []byte) {
	host, isHost := app.(component.Host)
	if app.Running() && (!isHost || host.Tree().AllRunning()) {
		return
	}
	if isHost && snapshot == nil {
		host.ContainCrash()
		_ = host.Tree().StartAll()
		return
	}
	_, _ = Apply(app, Action{Rung: RungRestore, Snapshot: snapshot, ResetOnFail: true}, nil)
}
