package recovery

import (
	"errors"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// GrowResources implements the paper's first §6.2 mitigation for
// environment-dependent-nontransient faults: "detect the problem and
// automatically increase the resources available to the application". The
// governor inspects the failure's underlying environment error and widens
// the matching limit — more descriptors, more process slots, a bigger file
// system, large-file support.
//
// It returns true when it grew something; conditions without a growable
// resource (a missing PTR record, a pulled network card, an application-
// internal leak) are untouched, which is why the governor rescues some
// nontransient faults and not others. The strategies and the supervisor
// both run it just before a recovery action.
func GrowResources(env *simenv.Env, fe *faultinject.FailureError) bool {
	switch {
	case errors.Is(fe, simenv.ErrFDExhausted):
		env.FDs().SetLimit(env.FDs().Limit() * 2)
		return true
	case errors.Is(fe, simenv.ErrProcTableFull):
		// Grow the process table so new children fit alongside the hung ones.
		// (Process pairs clears this differently — by killing the children —
		// but the governor's contract is to grow the resource, and returning
		// true without growing anything would silently retry into the same
		// full table.)
		t := env.Procs()
		return t.SetLimit(t.Limit()*2) == nil
	case errors.Is(fe, simenv.ErrDiskFull):
		return env.Disk().SetCapacity(env.Disk().Capacity()*2) == nil
	case errors.Is(fe, simenv.ErrFileTooLarge):
		env.Disk().SetMaxFileSize(env.Disk().MaxFileSize() * 2)
		return true
	case errors.Is(fe, simenv.ErrNetResourceExhausted):
		// The opaque kernel resource is held by another process; the
		// governor raises the cap so new units exist.
		env.Net().SetResourceCap(env.Net().ResourceInUse() * 2)
		return true
	default:
		return false
	}
}
