package httpd

import (
	"strings"
	"time"

	"faultstudy/internal/faultinject"
)

// healTTR is how long the transient environmental conditions staged by the
// scenarios take to heal on their own — short enough that a recovery
// strategy which waits between retries observes the healed environment.
const healTTR = 90 * time.Second

// Scenarios returns the executable reproduction of each seeded Apache bug:
// the staged environmental precondition and the workload that triggers it.
// The ops close over srv, so a recovery manager that restores srv's state
// can re-execute the failing op directly.
func Scenarios(srv *Server) map[string]faultinject.Scenario {
	env := srv.Env()
	get := func(path string) faultinject.Op {
		return faultinject.Op{Name: "GET " + path, Do: func() error {
			_, err := srv.Serve(Request{Method: "GET", Path: path})
			return err
		}}
	}
	// getN repeats one op value: the closure is stateless, so n copies of
	// it behave exactly like n separately built ones.
	getN := func(path string, n int) []faultinject.Op {
		op := get(path)
		ops := make([]faultinject.Op, n)
		for i := range ops {
			ops[i] = op
		}
		return ops
	}

	scenarios := map[string]faultinject.Scenario{
		MechLongURLOverflow: {
			Description: "a browser submits a 9000-character URL",
			Ops:         []faultinject.Op{get("/" + strings.Repeat("a", 9000))},
		},
		MechSighupCrash: {
			Description: "the operator sends SIGHUP to rotate logs",
			Ops: []faultinject.Op{
				get("/index.html"),
				{Name: "SIGHUP", Do: func() error { return srv.Signal(SigHUP) }},
			},
		},
		MechValistReuse: {
			Description: "a client requests a nonexistent URL",
			Ops:         []faultinject.Op{get("/no-such-page")},
		},
		MechPallocZero: {
			Description: "a client lists an empty directory with Indexes on",
			Ops:         []faultinject.Op{get("/empty/")},
		},
		MechMemoryLeakHup: {
			Description: "hours of traffic leak shared memory, then HUP rotates logs",
			Ops: append(getN("/index.html", 500),
				faultinject.Op{Name: "SIGHUP", Do: func() error { return srv.Signal(SigHUP) }}),
		},
		MechLoadResourceLeak: {
			Description: "sustained peak load leaks an unknown resource",
			Ops:         getN("/index.html", leakUnitCap+5),
		},
		MechFDExhaustion: {
			Description: "per-request descriptors leak until the table is full",
			Stage:       func() { env.FDs().SetLimit(40) },
			Ops:         getN("/index.html", 60),
		},
		MechDiskCacheFull: {
			Description: "the proxy cache partition fills up",
			Stage: func() {
				// Another tenant of the cache partition leaves little room.
				_ = env.Disk().FillFrom("cache-tenant", 6*4096) //faultlint:ignore envcheck staging the hostile environment is the point
			},
			Ops: getN("/proxy/page", 10),
		},
		MechLogFileLimit: {
			Description: "the access log reaches the maximum allowed file size",
			Stage: func() {
				_ = env.Disk().SetCapacity(1 << 30)
				// Pre-grow the log to just under the per-file limit.
				_ = env.Disk().Append(accessLog, Owner, env.Disk().MaxFileSize()-200) //faultlint:ignore envcheck staging the hostile environment is the point
			},
			Ops: getN("/index.html", 4),
		},
		MechFSFull: {
			Description: "another tenant fills the file system",
			Stage:       func() { _ = env.Disk().FillFrom("other-tenant", 64) }, //faultlint:ignore envcheck staging the hostile environment is the point
			Ops:         getN("/index.html", 3),
		},
		MechNetResource: {
			Description: "an opaque kernel network resource is exhausted",
			Stage: func() {
				env.Net().SetResourceCap(8)
				for i := 0; i < 8; i++ {
					_ = env.Net().AcquireResource() //faultlint:ignore envcheck held by another process: staging the exhaustion
				}
			},
			Ops: getN("/index.html", 3),
		},
		MechPCMCIARemoval: {
			Description: "the PCMCIA network card is removed mid-operation",
			Stage:       func() { env.Net().RemoveInterface() },
			Ops:         getN("/index.html", 3),
		},
		MechDNSError: {
			Description: "the site DNS server starts answering with errors",
			Stage: func() {
				env.DNS().AddHost("client.example.com", "10.1.2.3")
				env.DNS().Fail(healTTR)
			},
			Ops: []faultinject.Op{{Name: "GET with lookup", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", Host: "client.example.com"})
				return err
			}}},
		},
		MechDNSSlow: {
			Description: "the site DNS server answers very slowly",
			Stage: func() {
				env.DNS().AddHost("client.example.com", "10.1.2.3")
				env.DNS().Slow(healTTR)
			},
			Ops: []faultinject.Op{{Name: "GET with lookup", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", Host: "client.example.com"})
				return err
			}}},
		},
		MechProcTableFull: {
			Description: "peak load hangs CGI children until the process table fills",
			Stage:       func() {},
			Ops:         getN("/cgi-bin/env", 200),
		},
		MechClientAbort: {
			Description: "the user presses stop in the middle of a download",
			Stage:       func() { env.Sched().Force(MechClientAbort, 0) },
			Ops: []faultinject.Op{{Name: "aborted GET", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", AbortMidway: true})
				return err
			}}},
		},
		MechPortSquat: {
			Description: "hung children keep the listening port across a restart",
			Ops: append(getN("/cgi-bin/env", 3),
				faultinject.Op{Name: "restart", Do: func() error {
					srv.Stop()
					return srv.Start()
				}}),
		},
		MechSlowNetwork: {
			Description: "the uplink saturates",
			Stage:       func() { env.Net().SlowFor(healTTR) },
			Ops:         getN("/index.html", 2),
		},
		MechEntropyStarved: {
			Description: "ssl handshakes on an idle machine drain /dev/random",
			Stage:       func() { env.Entropy().Drain() },
			Ops: []faultinject.Op{{Name: "GET https", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", SSL: true})
				return err
			}}},
		},
	}

	for _, bug := range []string{"null-deref", "bounds", "bad-init", "parse-loop",
		"type-mismatch", "missing-check", "double-free", "wrong-status"} {
		key := "httpd/" + bug
		scenarios[key] = faultinject.Scenario{
			Mechanism:   key,
			Description: "a request exercises the " + bug + " defect path",
			Ops:         []faultinject.Op{get("/bug/" + bug)},
		}
	}

	for key, sc := range scenarios {
		sc.Mechanism = key
		scenarios[key] = sc
	}
	return scenarios
}
