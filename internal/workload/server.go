package workload

import (
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
)

// Server is what the serving tier asks of an application: a name, a warmup
// to steady state, and the ability to serve one open-loop arrival at a
// time. The contract deliberately uses only basic types — the arrival's
// schedule position, its simulated user, and its uniform category draw — so
// app packages can implement it without importing the traffic model, and
// the traffic model can drive apps without importing them.
//
// The contract: ServeCategory names the operation-mix bucket a draw maps to
// and is the one copy of the app's mix thresholds; ServeArrival serves that
// category and returns only the serve error. A request refused because a
// component it routes through is down returns a *component.DownError naming
// that component; callers classify any other error with
// faultinject.AsFailure. Implementations must be deterministic functions of
// (seq, user, u) and current server state.
type Server interface {
	// Name identifies the application ("httpd", "sqldb").
	Name() string
	// ServeWarm brings the application to serving steady state.
	ServeWarm() error
	// ServeCategory maps a uniform draw u in [0, 1) to its operation-mix
	// bucket without serving anything.
	ServeCategory(u float64) string
	// ServeArrival serves one scheduled arrival.
	ServeArrival(seq, user int, u float64) error
}

// The componentized applications are the serving tier's drivers; keep them
// honest at compile time.
var (
	_ Server = (*httpd.Componentized)(nil)
	_ Server = (*sqldb.Componentized)(nil)
)
