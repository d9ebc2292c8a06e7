package cache

import (
	"fmt"
	"strings"
	"time"

	"faultstudy/internal/faultinject"
)

// healTTR is how long the transient environmental conditions staged by the
// scenarios take to heal on their own — short enough that a recovery
// strategy which waits between retries observes the healed environment.
const healTTR = 90 * time.Second

// Scenario returns the executable reproduction of the seeded cache-daemon bug
// named by key: the staged environmental precondition and the workload that
// triggers it. It reports false for a key with no scenario. The ops close
// over srv, so a recovery manager that restores srv's state can re-execute
// the failing op directly.
func Scenario(srv *Server, key string) (faultinject.Scenario, bool) {
	env := srv.Env()
	get := func(k string) faultinject.Op {
		return faultinject.Op{Name: "GET " + k, Do: func() error {
			_, err := srv.Get(k)
			return err
		}}
	}
	set := func(k, value string) faultinject.Op {
		return faultinject.Op{Name: "SET " + k, Do: func() error {
			return srv.Set(k, value)
		}}
	}
	setN := func(prefix string, n int) []faultinject.Op {
		ops := make([]faultinject.Op, 0, n)
		for i := 0; i < n; i++ {
			ops = append(ops, set(fmt.Sprintf("%s%d", prefix, i), "v"))
		}
		return ops
	}
	// getN repeats one op value: the closure is stateless, so n copies of
	// it behave exactly like n separately built ones.
	getN := func(key string, n int) []faultinject.Op {
		op := get(key)
		ops := make([]faultinject.Op, n)
		for i := range ops {
			ops[i] = op
		}
		return ops
	}
	stats := faultinject.Op{Name: "STATS", Do: func() error {
		_, err := srv.Stats()
		return err
	}}
	flush := faultinject.Op{Name: "FLUSH", Do: func() error { return srv.Flush() }}

	var sc faultinject.Scenario
	switch key {
	case MechEmptyKeyDeref:
		sc = faultinject.Scenario{
			Description: "a client sends a get with an empty key",
			Ops:         []faultinject.Op{set("a", "1"), get("")},
		}
	case MechEvictOffByOne:
		sc = faultinject.Scenario{
			Description: "a store at exactly the LRU capacity forces an eviction",
			Ops:         setN("fill", srv.cfg.Capacity+1),
		}
	case MechTTLParseLoop:
		sc = faultinject.Scenario{
			Description: "a store carries a negative TTL in its value",
			Ops:         []faultinject.Op{set("k", "payload ttl=-1")},
		}
	case MechStatsDivZero:
		sc = faultinject.Scenario{
			Description: "stats are requested before the first lookup",
			Ops:         []faultinject.Op{stats},
		}
	case MechBigValueBounds:
		sc = faultinject.Scenario{
			Description: "a client stores a value larger than the slab size",
			Ops:         []faultinject.Op{set("big", strings.Repeat("x", maxValueBytes+1))},
		}
	case MechFlushDoubleFree:
		sc = faultinject.Scenario{
			Description: "an operator script flushes twice in a row",
			Ops:         []faultinject.Op{flush, flush},
		}
	case MechWrongHitCount:
		sc = faultinject.Scenario{
			Description: "stats are read after normal traffic",
			Ops:         []faultinject.Op{set("a", "1"), get("a"), stats},
		}
	case MechAOFDiskFull:
		sc = faultinject.Scenario{
			Description: "another tenant fills the persistence partition",
			// The margin must be smaller than the smallest log record the
			// triggering SET can append (29 bytes for SET k v), so the
			// append genuinely hits the full partition.
			Stage: func() { _ = env.Disk().FillFrom("other-tenant", 16) }, //faultlint:ignore envcheck staging the hostile environment is the point
			Ops:   []faultinject.Op{set("k", "v")},
		}
	case MechConnFDLeak:
		sc = faultinject.Scenario{
			Description: "leaked connection descriptors fill the table",
			Stage:       func() { env.FDs().SetLimit(40) },
			Ops:         getN("motd", 60),
		}
	case MechShadowCopyLeak:
		sc = faultinject.Scenario{
			Description: "sustained store traffic leaks shadow copies",
			Ops:         setN("load", shadowCopyCap+5),
		}
	case MechPeerDNSFlap:
		sc = faultinject.Scenario{
			Description: "the resolver starts failing replication-peer lookups",
			Stage: func() {
				env.DNS().AddHost(peerHost, "10.9.9.9")
				env.DNS().Fail(healTTR)
			},
			Ops: []faultinject.Op{get("missing-key")},
		}
	case MechExpiryRace:
		sc = faultinject.Scenario{
			Description: "a delete lands inside the expiry sweep's window",
			Stage:       func() { env.Sched().Force(MechExpiryRace, 0) },
			Ops: []faultinject.Op{set("doomed", "v"), {Name: "DEL doomed", Do: func() error {
				return srv.Del("doomed")
			}}},
		}
	case MechSlowReplFlush:
		sc = faultinject.Scenario{
			Description: "the replication uplink saturates",
			Stage:       func() { env.Net().SlowFor(healTTR) },
			Ops:         []faultinject.Op{set("k", "v"), get("k")},
		}
	default:
		return faultinject.Scenario{}, false
	}
	sc.Mechanism = key
	return sc, true
}
