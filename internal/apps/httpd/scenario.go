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

// Scenario returns the executable reproduction of the seeded Apache bug
// named by key: the staged environmental precondition and the workload that
// triggers it. It reports false for a key with no scenario. The ops close
// over srv, so a recovery manager that restores srv's state can re-execute
// the failing op directly.
func Scenario(srv *Server, key string) (faultinject.Scenario, bool) {
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

	var sc faultinject.Scenario
	switch key {
	case MechLongURLOverflow:
		sc = faultinject.Scenario{
			Description: "a browser submits a 9000-character URL",
			Ops:         []faultinject.Op{get("/" + strings.Repeat("a", 9000))},
		}
	case MechSighupCrash:
		sc = faultinject.Scenario{
			Description: "the operator sends SIGHUP to rotate logs",
			Ops: []faultinject.Op{
				get("/index.html"),
				{Name: "SIGHUP", Do: func() error { return srv.Signal(SigHUP) }},
			},
		}
	case MechValistReuse:
		sc = faultinject.Scenario{
			Description: "a client requests a nonexistent URL",
			Ops:         []faultinject.Op{get("/no-such-page")},
		}
	case MechPallocZero:
		sc = faultinject.Scenario{
			Description: "a client lists an empty directory with Indexes on",
			Ops:         []faultinject.Op{get("/empty/")},
		}
	case MechMemoryLeakHup:
		// 500 requests, then the HUP in the last slot: no append regrowth.
		ops := getN("/index.html", 501)
		ops[500] = faultinject.Op{Name: "SIGHUP", Do: func() error { return srv.Signal(SigHUP) }}
		sc = faultinject.Scenario{
			Description: "hours of traffic leak shared memory, then HUP rotates logs",
			Ops:         ops,
		}
	case MechLoadResourceLeak:
		sc = faultinject.Scenario{
			Description: "sustained peak load leaks an unknown resource",
			Ops:         getN("/index.html", leakUnitCap+5),
		}
	case MechFDExhaustion:
		sc = faultinject.Scenario{
			Description: "per-request descriptors leak until the table is full",
			Stage:       func() { env.FDs().SetLimit(40) },
			Ops:         getN("/index.html", 60),
		}
	case MechDiskCacheFull:
		sc = faultinject.Scenario{
			Description: "the proxy cache partition fills up",
			Stage: func() {
				// Another tenant of the cache partition leaves little room.
				_ = env.Disk().FillFrom("cache-tenant", 6*4096) //faultlint:ignore envcheck staging the hostile environment is the point
			},
			Ops: getN("/proxy/page", 10),
		}
	case MechLogFileLimit:
		sc = faultinject.Scenario{
			Description: "the access log reaches the maximum allowed file size",
			Stage: func() {
				_ = env.Disk().SetCapacity(1 << 30)
				// Pre-grow the log to just under the per-file limit.
				_ = env.Disk().Append(accessLog, Owner, env.Disk().MaxFileSize()-200) //faultlint:ignore envcheck staging the hostile environment is the point
			},
			Ops: getN("/index.html", 4),
		}
	case MechFSFull:
		sc = faultinject.Scenario{
			Description: "another tenant fills the file system",
			Stage:       func() { _ = env.Disk().FillFrom("other-tenant", 64) }, //faultlint:ignore envcheck staging the hostile environment is the point
			Ops:         getN("/index.html", 3),
		}
	case MechNetResource:
		sc = faultinject.Scenario{
			Description: "an opaque kernel network resource is exhausted",
			Stage: func() {
				env.Net().SetResourceCap(8)
				for i := 0; i < 8; i++ {
					_ = env.Net().AcquireResource() //faultlint:ignore envcheck held by another process: staging the exhaustion
				}
			},
			Ops: getN("/index.html", 3),
		}
	case MechPCMCIARemoval:
		sc = faultinject.Scenario{
			Description: "the PCMCIA network card is removed mid-operation",
			Stage:       func() { env.Net().RemoveInterface() },
			Ops:         getN("/index.html", 3),
		}
	case MechDNSError:
		sc = faultinject.Scenario{
			Description: "the site DNS server starts answering with errors",
			Stage: func() {
				env.DNS().AddHost("client.example.com", "10.1.2.3")
				env.DNS().Fail(healTTR)
			},
			Ops: []faultinject.Op{{Name: "GET with lookup", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", Host: "client.example.com"})
				return err
			}}},
		}
	case MechDNSSlow:
		sc = faultinject.Scenario{
			Description: "the site DNS server answers very slowly",
			Stage: func() {
				env.DNS().AddHost("client.example.com", "10.1.2.3")
				env.DNS().Slow(healTTR)
			},
			Ops: []faultinject.Op{{Name: "GET with lookup", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", Host: "client.example.com"})
				return err
			}}},
		}
	case MechProcTableFull:
		sc = faultinject.Scenario{
			Description: "peak load hangs CGI children until the process table fills",
			Stage:       func() {},
			Ops:         getN("/cgi-bin/env", 200),
		}
	case MechClientAbort:
		sc = faultinject.Scenario{
			Description: "the user presses stop in the middle of a download",
			Stage:       func() { env.Sched().Force(MechClientAbort, 0) },
			Ops: []faultinject.Op{{Name: "aborted GET", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", AbortMidway: true})
				return err
			}}},
		}
	case MechPortSquat:
		sc = faultinject.Scenario{
			Description: "hung children keep the listening port across a restart",
			Ops: append(getN("/cgi-bin/env", 3),
				faultinject.Op{Name: "restart", Do: func() error {
					srv.Stop()
					return srv.Start()
				}}),
		}
	case MechSlowNetwork:
		sc = faultinject.Scenario{
			Description: "the uplink saturates",
			Stage:       func() { env.Net().SlowFor(healTTR) },
			Ops:         getN("/index.html", 2),
		}
	case MechEntropyStarved:
		sc = faultinject.Scenario{
			Description: "ssl handshakes on an idle machine drain /dev/random",
			Stage:       func() { env.Entropy().Drain() },
			Ops: []faultinject.Op{{Name: "GET https", Do: func() error {
				_, err := srv.Serve(Request{Method: "GET", Path: "/index.html", SSL: true})
				return err
			}}},
		}
	case MechNullDeref, MechBounds, MechBadInit, MechParseLoop,
		MechTypeMismatch, MechMissingCheck, MechDoubleFree, MechWrongStatus:
		bug := strings.TrimPrefix(key, "httpd/")
		sc = faultinject.Scenario{
			Description: "a request exercises the " + bug + " defect path",
			Ops:         []faultinject.Op{get("/bug/" + bug)},
		}
	default:
		return faultinject.Scenario{}, false
	}
	sc.Mechanism = key
	return sc, true
}
