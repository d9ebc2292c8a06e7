package cache

import (
	"faultstudy/internal/faultinject"
	"faultstudy/internal/taxonomy"
)

// Mechanism keys for the seeded cache-daemon bugs. The catalogue mirrors the
// fault shapes the study found in the three applications — deterministic
// request-path defects, persistent resource exhaustion, and transient
// timing/network conditions — transplanted onto a cache daemon's paths.
const (
	// Environment-independent bugs.
	MechEmptyKeyDeref   = "cache/empty-key-deref"
	MechEvictOffByOne   = "cache/evict-off-by-one"
	MechTTLParseLoop    = "cache/ttl-parse-loop"
	MechStatsDivZero    = "cache/stats-div-zero"
	MechBigValueBounds  = "cache/big-value-bounds"
	MechFlushDoubleFree = "cache/flush-double-free"
	MechWrongHitCount   = "cache/wrong-hit-count"

	// Environment-dependent-nontransient bugs.
	MechAOFDiskFull    = "cache/aof-disk-full"
	MechConnFDLeak     = "cache/conn-fd-leak"
	MechShadowCopyLeak = "cache/shadow-copy-leak"

	// Environment-dependent-transient bugs.
	MechPeerDNSFlap   = "cache/peer-dns-flap"
	MechExpiryRace    = "cache/expiry-race"
	MechSlowReplFlush = "cache/slow-repl-flush"
)

// Mechanisms is the daemon's seeded-bug catalogue.
var Mechanisms = []faultinject.Mechanism{
	{Key: MechEmptyKeyDeref, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "null item pointer dereferenced on an empty-key lookup"},
	{Key: MechEvictOffByOne, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "off-by-one in the eviction scan corrupts the LRU index at capacity"},
	{Key: MechTTLParseLoop, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "expiry parser loops forever on a negative TTL"},
	{Key: MechStatsDivZero, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "hit-ratio division by zero before the first lookup"},
	{Key: MechBigValueBounds, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "slab bounds overrun storing an oversized value"},
	{Key: MechFlushDoubleFree, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "double free of the slab list on consecutive flushes"},
	{Key: MechWrongHitCount, App: taxonomy.AppCache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "stats assembled from a stale counter snapshot"},
	{Key: MechAOFDiskFull, App: taxonomy.AppCache, Trigger: taxonomy.TriggerDiskFull, Description: "append-only log writes fail on a full partition"},
	{Key: MechConnFDLeak, App: taxonomy.AppCache, Trigger: taxonomy.TriggerFDExhaustion, Description: "per-connection descriptors never closed until the table is full"},
	{Key: MechShadowCopyLeak, App: taxonomy.AppCache, Trigger: taxonomy.TriggerResourceLeak, Description: "shadow copies leak under sustained load until memory is gone"},
	{Key: MechPeerDNSFlap, App: taxonomy.AppCache, Trigger: taxonomy.TriggerDNSFailure, Description: "replication-peer lookups fail while the resolver flaps"},
	{Key: MechExpiryRace, App: taxonomy.AppCache, Trigger: taxonomy.TriggerRace, Description: "delete racing the expiry sweep frees an entry twice"},
	{Key: MechSlowReplFlush, App: taxonomy.AppCache, Trigger: taxonomy.TriggerSlowNetwork, Description: "replication flush stalls on a saturated link"},
}
