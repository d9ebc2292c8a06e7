package sqldb

import (
	"strings"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/taxonomy"
)

// Mechanism keys for the seeded MySQL bugs.
const (
	// Named environment-independent bugs (§5.3).
	MechIndexUpdateScan = "sqldb/index-update-scan"
	MechOrderByEmpty    = "sqldb/orderby-empty"
	MechCountEmpty      = "sqldb/count-empty"
	MechOptimizeCrash   = "sqldb/optimize-crash"
	MechFlushAfterLock  = "sqldb/flush-after-lock"

	// Template-class environment-independent bugs.
	MechNullDeref    = "sqldb/null-deref"
	MechStaleBuffer  = "sqldb/stale-buffer"
	MechBadInit      = "sqldb/bad-init"
	MechExecLoop     = "sqldb/exec-loop"
	MechBounds       = "sqldb/bounds"
	MechMissingCheck = "sqldb/missing-check"

	// Environment-dependent-nontransient bugs.
	MechFDCompetition = "sqldb/fd-competition"
	MechNoReverseDNS  = "sqldb/no-reverse-dns"
	MechDBFileLimit   = "sqldb/db-file-limit"
	MechFSFull        = "sqldb/fs-full"

	// Environment-dependent-transient bugs.
	MechSignalMaskRace = "sqldb/signal-mask-race"
	MechLoginAdminRace = "sqldb/login-admin-race"
)

// Mechanisms is the database's seeded-bug catalogue.
var Mechanisms = []faultinject.Mechanism{
	{Key: MechIndexUpdateScan, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "updating an indexed key to a value found later in the scan crashes the server"},
	{Key: MechOrderByEmpty, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "ORDER BY over zero matching records crashes the sort setup"},
	{Key: MechCountEmpty, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "COUNT on an empty table crashes"},
	{Key: MechOptimizeCrash, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "OPTIMIZE TABLE crashes in the rebuild path"},
	{Key: MechFlushAfterLock, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "FLUSH TABLES after LOCK TABLES crashes"},
	{Key: MechNullDeref, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "specific query shape dereferences a null handle"},
	{Key: MechStaleBuffer, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "reused sort buffer leaks rows between queries"},
	{Key: MechBadInit, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "descriptor used before initialization aborts the server"},
	{Key: MechExecLoop, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "executor re-enqueues the same work item forever"},
	{Key: MechBounds, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "row longer than the 16-bit length field corrupts headers"},
	{Key: MechMissingCheck, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerWorkloadOnly, Description: "empty-result branch misses a bounds check"},
	{Key: MechFDCompetition, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerFDExhaustion, Description: "a co-hosted web server exhausts the descriptors tables need"},
	{Key: MechNoReverseDNS, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerHostConfig, Description: "connection from a host without a PTR record crashes the server"},
	{Key: MechDBFileLimit, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerFileSizeLimit, Description: "datafile at the maximum file size fails inserts"},
	{Key: MechFSFull, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerDiskFull, Description: "full file system prevents all operations"},
	{Key: MechSignalMaskRace, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerRace, Description: "signal arrives inside the unmask window"},
	{Key: MechLoginAdminRace, App: taxonomy.AppMySQL, Trigger: taxonomy.TriggerRace, Description: "login interleaves with a privilege reload"},
}

// genericBugKey maps a "bug_<defect>" table name to its mechanism key, or "".
func genericBugKey(tableName string) string {
	defect, ok := strings.CutPrefix(tableName, "bug_")
	if !ok {
		return ""
	}
	key := "sqldb/" + strings.ReplaceAll(defect, "_", "-")
	switch key {
	case MechNullDeref, MechStaleBuffer, MechBadInit, MechExecLoop, MechBounds, MechMissingCheck:
		return key
	default:
		return ""
	}
}
