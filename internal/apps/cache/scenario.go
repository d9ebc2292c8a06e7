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

// Scenarios returns the executable reproduction of each seeded cache-daemon
// bug: the staged environmental precondition and the workload that triggers
// it. The ops close over srv, so a recovery manager that restores srv's
// state can re-execute the failing op directly.
func Scenarios(srv *Server) map[string]faultinject.Scenario {
	env := srv.Env()
	get := func(key string) faultinject.Op {
		return faultinject.Op{Name: "GET " + key, Do: func() error {
			_, err := srv.Get(key)
			return err
		}}
	}
	set := func(key, value string) faultinject.Op {
		return faultinject.Op{Name: "SET " + key, Do: func() error {
			return srv.Set(key, value)
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

	scenarios := map[string]faultinject.Scenario{
		MechEmptyKeyDeref: {
			Description: "a client sends a get with an empty key",
			Ops:         []faultinject.Op{set("a", "1"), get("")},
		},
		MechEvictOffByOne: {
			Description: "a store at exactly the LRU capacity forces an eviction",
			Ops:         setN("fill", srv.cfg.Capacity+1),
		},
		MechTTLParseLoop: {
			Description: "a store carries a negative TTL in its value",
			Ops:         []faultinject.Op{set("k", "payload ttl=-1")},
		},
		MechStatsDivZero: {
			Description: "stats are requested before the first lookup",
			Ops:         []faultinject.Op{stats},
		},
		MechBigValueBounds: {
			Description: "a client stores a value larger than the slab size",
			Ops:         []faultinject.Op{set("big", strings.Repeat("x", maxValueBytes+1))},
		},
		MechFlushDoubleFree: {
			Description: "an operator script flushes twice in a row",
			Ops:         []faultinject.Op{flush, flush},
		},
		MechWrongHitCount: {
			Description: "stats are read after normal traffic",
			Ops:         []faultinject.Op{set("a", "1"), get("a"), stats},
		},
		MechAOFDiskFull: {
			Description: "another tenant fills the persistence partition",
			// The margin must be smaller than the smallest log record the
			// triggering SET can append (29 bytes for SET k v), so the
			// append genuinely hits the full partition.
			Stage: func() { _ = env.Disk().FillFrom("other-tenant", 16) }, //faultlint:ignore envcheck staging the hostile environment is the point
			Ops:   []faultinject.Op{set("k", "v")},
		},
		MechConnFDLeak: {
			Description: "leaked connection descriptors fill the table",
			Stage:       func() { env.FDs().SetLimit(40) },
			Ops:         getN("motd", 60),
		},
		MechShadowCopyLeak: {
			Description: "sustained store traffic leaks shadow copies",
			Ops:         setN("load", shadowCopyCap+5),
		},
		MechPeerDNSFlap: {
			Description: "the resolver starts failing replication-peer lookups",
			Stage: func() {
				env.DNS().AddHost(peerHost, "10.9.9.9")
				env.DNS().Fail(healTTR)
			},
			Ops: []faultinject.Op{get("missing-key")},
		},
		MechExpiryRace: {
			Description: "a delete lands inside the expiry sweep's window",
			Stage:       func() { env.Sched().Force(MechExpiryRace, 0) },
			Ops: []faultinject.Op{set("doomed", "v"), {Name: "DEL doomed", Do: func() error {
				return srv.Del("doomed")
			}}},
		},
		MechSlowReplFlush: {
			Description: "the replication uplink saturates",
			Stage:       func() { env.Net().SlowFor(healTTR) },
			Ops:         []faultinject.Op{set("k", "v"), get("k")},
		},
	}

	for key, sc := range scenarios {
		sc.Mechanism = key
		scenarios[key] = sc
	}
	return scenarios
}
