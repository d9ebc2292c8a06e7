package supervise

import (
	"fmt"
	"time"

	"faultstudy/internal/component"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
)

// Action is one recovery action for Apply, the executor the supervisor's
// ladder and every experiment sweep share.
type Action struct {
	// Rung is the action. A microreboot of a mechanism no component is
	// attributed to restores Snapshot instead.
	Rung Rung
	// Mechanism is the failing fault mechanism: the component tree's
	// attribution key and the program point Attempt is forced at.
	Mechanism string
	// Attempt is the recovery attempt number, forced as the interleaving
	// choice at Mechanism so successive retries run successive schedules.
	Attempt int
	// Widen makes a microreboot cycle the target's dependent subtree.
	Widen bool
	// Snapshot is the state a restore reinstates.
	Snapshot []byte
	// ResetOnFail makes a failed restore fall back to a pristine Reset. The
	// restore's error is returned either way.
	ResetOnFail bool
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
// failed: forced choices cleared, the scheduler reseeded and Attempt forced
// at Mechanism.
func Apply(app recovery.Application, a Action, outage Outage) (string, error) {
	target, err := act(app, a, outage)
	reroll(app.Env())
	app.Env().Sched().Force(a.Mechanism, a.Attempt)
	return target, err
}

// act performs the structural half of an Action.
func act(app recovery.Application, a Action, outage Outage) (string, error) {
	if host, ok := app.(component.Host); ok && a.Rung == RungMicroreboot {
		if target, attributed := host.ComponentFor(a.Mechanism); attributed {
			// Crash-only: contain the crash and cycle the faulty component
			// while siblings serve.
			host.ContainCrash()
			var window func(time.Duration)
			if outage != nil {
				window = func(cost time.Duration) { outage(target, cost) }
			}
			return target, host.Tree().Reboot(target, a.Widen, window)
		}
	}
	switch a.Rung {
	case RungRetry:
		return "", nil
	case RungMicroreboot, RungRestore:
		bounce(app, outage)
		err := app.Restore(a.Snapshot)
		if err != nil && a.ResetOnFail {
			_ = app.Reset()
		}
		return "", err
	case RungRestart:
		bounce(app, outage)
		return "", app.Reset()
	}
	return "", fmt.Errorf("supervise: no action for rung %s", a.Rung)
}

// bounce stops the whole process, charges the outage, then reclaims every
// environment resource the process held.
func bounce(app recovery.Application, outage Outage) {
	app.Stop()
	if outage != nil {
		outage("", 0)
	}
	app.Env().ReclaimOwner(app.Name())
}

// Revive brings an application back up after an abandoned episode. A
// running application with every component up is left alone; a component
// tree with a nil snapshot is revived in place. Otherwise the process is
// bounced, the schedule reseeded and snapshot restored, or the application
// reset when that fails.
func Revive(app recovery.Application, snapshot []byte) error {
	host, isHost := app.(component.Host)
	if app.Running() && (!isHost || host.Tree().AllRunning()) {
		return nil
	}
	if isHost && snapshot == nil {
		host.ContainCrash()
		return host.Tree().StartAll()
	}
	bounce(app, nil)
	reroll(app.Env())
	if err := app.Restore(snapshot); err != nil {
		return app.Reset()
	}
	return nil
}

// reroll clears every forced choice and reseeds the scheduler.
func reroll(env *simenv.Env) {
	env.Sched().UnforceAll()
	env.Reroll()
}
