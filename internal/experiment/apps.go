package experiment

import (
	"fmt"
	"strings"

	"faultstudy/internal/apps/cache"
	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/recovery"
	"faultstudy/internal/simenv"
	"faultstudy/internal/supervise"
	"faultstudy/internal/taxonomy"
	"faultstudy/internal/workload"
)

// appEntry is one application of the lab's catalogue: everything a sweep
// needs to build, drive, and score the application behind one mechanism
// namespace. Sweeps reach an application only through its entry, so adding
// an application is one entry, not one case per sweep.
type appEntry struct {
	// ns is the mechanism-key namespace ("httpd/").
	ns string
	// app is the application the namespace's mechanisms belong to.
	app taxonomy.Application
	// paper marks the studied applications, the ones in Registry(); the
	// others are extension archetypes, in CorpusRegistry() only.
	paper bool
	// serve marks the daemons the SERVE sweep drives with open-loop traffic.
	serve bool
	// register adds the namespace's seeded-bug mechanisms to a registry.
	register func(*faultinject.Registry)
	// build constructs the application on a fresh environment with the given
	// mechanisms seeded, and returns it with its scenario table. Scenario
	// runs size the environment so exhaustion triggers quickly; soak runs
	// give every application simenv's default 256 descriptors.
	build func(seed int64, soak bool, set *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario)
	// componentize wraps a built application in its crash-only component
	// tree.
	componentize func(recovery.Application) componentApp
	// drive binds a componentized application to the MREBOOT/SCOPE
	// background workload: warm establishes the sessions and state the
	// workload uses, and bg serves the i-th background arrival.
	drive func(componentApp) (warm func(), bg func(i int) error)
	// opKind classifies an op name for degraded-mode shedding.
	opKind func(name string) supervise.OpKind
	// soakOps builds the soak's base workload over a built application
	// (nil: the application does not soak); trigger streams are interleaved
	// at or past soakMinAt.
	soakOps   func(cfg SoakConfig, app recovery.Application) []supervise.Op
	soakMinAt int
	// lintDir is the application's source directory, relative to the module
	// root.
	lintDir string
}

// scenarioFDLimit is the descriptor limit of scenario runs for the daemons;
// the desktop keeps simenv's default.
const scenarioFDLimit = 64

// fdLimit is the descriptor limit of a daemon's environment.
func fdLimit(soak bool) int {
	if soak {
		return 256
	}
	return scenarioFDLimit
}

// apps is the catalogue, in presentation order: the soak's shard order and
// the registries' registration order.
var apps = []appEntry{
	{
		ns: "httpd/", app: taxonomy.AppApache, paper: true, serve: true,
		register: httpd.RegisterMechanisms,
		build: func(seed int64, soak bool, set *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			env := simenv.New(seed, simenv.WithFDLimit(fdLimit(soak)), simenv.WithProcLimit(192))
			srv := httpd.New(env, set, httpd.Config{})
			return srv, httpd.Scenarios(srv)
		},
		componentize: func(app recovery.Application) componentApp {
			return httpd.Componentize(app.(*httpd.Server), component.NewStore())
		},
		drive: func(app componentApp) (func(), func(int) error) {
			c := app.(*httpd.Componentized)
			paths := []string{"/", "/index.html", "/proxy/asset", "/"}
			sessions := []string{"alice", "bob"}
			return func() {}, func(i int) error {
				_, err := c.Serve(httpd.Request{
					Method:  "GET",
					Path:    paths[i%len(paths)],
					Session: sessions[i%len(sessions)],
				})
				return err
			}
		},
		opKind: httpdOpKind,
		soakOps: func(cfg SoakConfig, app recovery.Application) []supervise.Op {
			srv := app.(*httpd.Server)
			reqs := workload.HTTPRequestsObserved(cfg.Seed, workload.DefaultHTTPMix(), cfg.Ops, cfg.workloadHook())
			ops := make([]supervise.Op, 0, len(reqs))
			for _, req := range reqs {
				name := req.Method + " " + req.Path
				ops = append(ops, supervise.Op{Name: name, Kind: httpdOpKind(name), Do: func() error {
					_, err := srv.Serve(req)
					return err
				}})
			}
			return ops
		},
		lintDir: "internal/apps/httpd",
	},
	{
		ns: "sqldb/", app: taxonomy.AppMySQL, paper: true, serve: true,
		register: sqldb.RegisterMechanisms,
		build: func(seed int64, soak bool, set *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			db := sqldb.New(simenv.New(seed, simenv.WithFDLimit(fdLimit(soak))), set)
			return db, sqldb.Scenarios(db)
		},
		componentize: func(app recovery.Application) componentApp {
			return sqldb.Componentize(app.(*sqldb.Server), component.NewStore())
		},
		drive: func(app componentApp) (func(), func(int) error) {
			c := app.(*sqldb.Componentized)
			warm := func() {
				tolerate(c, func() error { return c.Connect("alice", "10.0.0.7") })
				tolerate(c, func() error {
					_, err := c.Exec("alice", "CREATE TABLE warm (id INT, name TEXT)")
					return err
				})
				tolerate(c, func() error {
					_, err := c.Exec("alice", "INSERT INTO warm VALUES (1, 'w')")
					return err
				})
			}
			return warm, func(int) error {
				_, err := c.Exec("alice", "SELECT id FROM warm")
				return err
			}
		},
		opKind: sqldbOpKind,
		soakOps: func(cfg SoakConfig, app recovery.Application) []supervise.Op {
			db := app.(*sqldb.Server)
			stmts := workload.SQLStatementsObserved(cfg.Seed, cfg.Ops, cfg.workloadHook())
			ops := make([]supervise.Op, 0, len(stmts))
			for _, stmt := range stmts {
				ops = append(ops, supervise.Op{Name: stmt, Kind: sqldbOpKind(stmt), Do: func() error {
					_, err := db.Exec(stmt)
					return err
				}})
			}
			return ops
		},
		// Keep the schema-creating statements first.
		soakMinAt: 2,
		lintDir:   "internal/apps/sqldb",
	},
	{
		ns: "desktop/", app: taxonomy.AppGnome, paper: true,
		register: desktop.RegisterMechanisms,
		// The desktop runs at simenv's default limits, scenario and soak alike.
		build: func(seed int64, _ bool, set *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			d := desktop.New(simenv.New(seed), set)
			return d, desktop.Scenarios(d)
		},
		componentize: func(app recovery.Application) componentApp {
			return desktop.Componentize(app.(*desktop.Desktop), component.NewStore())
		},
		drive: func(app componentApp) (func(), func(int) error) {
			c := app.(*desktop.Componentized)
			events := []desktop.Event{
				{Widget: "calendar", Action: "next"},
				{Widget: "gnumeric", Action: "get-cell", Arg: "A1"},
				{Widget: "session", Action: "noop"},
			}
			warm := func() {
				tolerate(c, func() error {
					return c.Dispatch(desktop.Event{Widget: "gnumeric", Action: "set-cell", Arg: "A1=1"})
				})
			}
			return warm, func(i int) error { return c.Dispatch(events[i%len(events)]) }
		},
		opKind: desktopOpKind,
		soakOps: func(cfg SoakConfig, app recovery.Application) []supervise.Op {
			d := app.(*desktop.Desktop)
			events := workload.DesktopEventsObserved(cfg.Seed, cfg.Ops, cfg.workloadHook())
			ops := make([]supervise.Op, 0, len(events))
			for _, ev := range events {
				name := ev.Widget + " " + ev.Action
				ops = append(ops, supervise.Op{Name: name, Kind: desktopOpKind(name), Do: func() error {
					return d.Dispatch(ev)
				}})
			}
			return ops
		},
		lintDir: "internal/apps/desktop",
	},
	{
		ns: "cache/", app: taxonomy.AppCache,
		register: cache.RegisterMechanisms,
		build: func(seed int64, soak bool, set *faultinject.Set) (recovery.Application, map[string]faultinject.Scenario) {
			srv := cache.New(simenv.New(seed, simenv.WithFDLimit(fdLimit(soak))), set, cache.Config{Capacity: 16})
			return srv, cache.Scenarios(srv)
		},
		opKind: cacheOpKind,
	},
}

// The op-kind rules: conservative name-based heuristics per application.

func httpdOpKind(name string) supervise.OpKind {
	if strings.Contains(name, "/proxy/") || strings.Contains(name, "/cgi-bin/") ||
		strings.Contains(name, "SIGHUP") || strings.Contains(name, "restart") {
		return supervise.OpWrite
	}
	return supervise.OpRead
}

func sqldbOpKind(name string) supervise.OpKind {
	if strings.HasPrefix(name, "SELECT") {
		return supervise.OpRead
	}
	return supervise.OpWrite
}

func desktopOpKind(name string) supervise.OpKind {
	if strings.Contains(name, "play-sound") || strings.Contains(name, "set-cell") {
		return supervise.OpWrite
	}
	return supervise.OpRead
}

func cacheOpKind(name string) supervise.OpKind {
	if strings.HasPrefix(name, "SET") || strings.HasPrefix(name, "DEL") ||
		strings.HasPrefix(name, "FLUSH") {
		return supervise.OpWrite
	}
	return supervise.OpRead
}

// appFor returns the catalogue entry of a mechanism's namespace.
func appFor(mechanism string) (*appEntry, error) {
	for i := range apps {
		if strings.HasPrefix(mechanism, apps[i].ns) {
			return &apps[i], nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown mechanism namespace %q", mechanism)
}

// appOf returns the catalogue entry of an application.
func appOf(app taxonomy.Application) *appEntry {
	for i := range apps {
		if apps[i].app == app {
			return &apps[i]
		}
	}
	return nil
}

// newRegistry registers the mechanisms of the paper's applications, plus the
// extension archetypes when all is set.
func newRegistry(all bool) *faultinject.Registry {
	r := faultinject.NewRegistry()
	for _, e := range apps {
		if e.paper || all {
			e.register(r)
		}
	}
	return r
}

// buildScenario is BuildScenario that also returns the mechanism's
// catalogue entry.
func buildScenario(mechanism string, seed int64) (*appEntry, recovery.Application, faultinject.Scenario, error) {
	e, err := appFor(mechanism)
	if err != nil {
		return nil, nil, faultinject.Scenario{}, err
	}
	app, scenarios := e.build(seed, false, faultinject.NewSet(mechanism))
	sc, ok := scenarios[mechanism]
	if !ok {
		return nil, nil, faultinject.Scenario{}, fmt.Errorf("experiment: no %s scenario for %s", strings.TrimSuffix(e.ns, "/"), mechanism)
	}
	return e, app, sc, nil
}

// BuildScenario constructs the simulated application and executable scenario
// for a seeded-bug mechanism. The environment is sized so the scenario's
// exhaustion conditions trigger quickly.
func BuildScenario(mechanism string, seed int64) (recovery.Application, faultinject.Scenario, error) {
	_, app, sc, err := buildScenario(mechanism, seed)
	return app, sc, err
}

// Registry returns the full seeded-bug catalogue of all three applications.
func Registry() *faultinject.Registry { return newRegistry(false) }

// CorpusRegistry returns the extended mechanism catalogue the generated
// corpus samples from: the paper's three applications plus the extension
// archetypes. It is deliberately distinct from Registry() so the paper-table
// experiments (matrix, soak, mreboot, lint, scope, serve) keep the studied
// universe untouched.
func CorpusRegistry() *faultinject.Registry { return newRegistry(true) }

// wrapScenarioOps converts scenario trigger ops into supervised ops,
// classified by an application's op-kind rule.
func wrapScenarioOps(kind func(string) supervise.OpKind, ops []faultinject.Op) []supervise.Op {
	out := make([]supervise.Op, 0, len(ops))
	for _, op := range ops {
		out = append(out, supervise.Op{Name: op.Name, Kind: kind(op.Name), Do: op.Do})
	}
	return out
}
