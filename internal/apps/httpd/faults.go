package httpd

import (
	"faultstudy/internal/faultinject"
	"faultstudy/internal/taxonomy"
)

// Mechanism keys for the seeded Apache bugs. The env-dependent keys map
// one-to-one onto the paper's §5.1 trigger list; the generic keys host the
// template-class environment-independent faults.
const (
	// Named environment-independent bugs.
	MechLongURLOverflow = "httpd/long-url-overflow"
	MechSighupCrash     = "httpd/sighup-crash"
	MechValistReuse     = "httpd/valist-reuse"
	MechPallocZero      = "httpd/palloc-zero"
	MechMemoryLeakHup   = "httpd/memory-leak-hup"

	// Template-class environment-independent bugs.
	MechNullDeref    = "httpd/null-deref"
	MechBounds       = "httpd/bounds"
	MechBadInit      = "httpd/bad-init"
	MechParseLoop    = "httpd/parse-loop"
	MechTypeMismatch = "httpd/type-mismatch"
	MechMissingCheck = "httpd/missing-check"
	MechDoubleFree   = "httpd/double-free"
	MechWrongStatus  = "httpd/wrong-status"

	// Environment-dependent-nontransient bugs.
	MechLoadResourceLeak = "httpd/load-resource-leak"
	MechFDExhaustion     = "httpd/fd-exhaustion"
	MechDiskCacheFull    = "httpd/disk-cache-full"
	MechLogFileLimit     = "httpd/log-file-limit"
	MechFSFull           = "httpd/fs-full"
	MechNetResource      = "httpd/net-resource"
	MechPCMCIARemoval    = "httpd/pcmcia-removal"

	// Environment-dependent-transient bugs.
	MechDNSError       = "httpd/dns-error"
	MechProcTableFull  = "httpd/proc-table-full"
	MechClientAbort    = "httpd/client-abort"
	MechPortSquat      = "httpd/port-squat"
	MechDNSSlow        = "httpd/dns-slow"
	MechSlowNetwork    = "httpd/slow-network"
	MechEntropyStarved = "httpd/entropy-starved"
)

// Mechanisms is the server's seeded-bug catalogue.
var Mechanisms = []faultinject.Mechanism{
	{Key: MechLongURLOverflow, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "hash overflow crashes the child on URLs over 8000 bytes"},
	{Key: MechSighupCrash, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "SIGHUP kills the server instead of restarting it"},
	{Key: MechValistReuse, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "va_list reuse crashes the 404 error path"},
	{Key: MechPallocZero, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "palloc(0) crashes empty-directory listings"},
	{Key: MechMemoryLeakHup, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "per-request leak grows shared memory; HUP then kills the server"},
	{Key: MechNullDeref, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "null dereference on a specific request"},
	{Key: MechBounds, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "buffer overrun on a specific request"},
	{Key: MechBadInit, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "uninitialized status variable yields a garbage response"},
	{Key: MechParseLoop, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "parser loops forever on a malformed token"},
	{Key: MechTypeMismatch, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "signed/unsigned conversion crashes allocation"},
	{Key: MechMissingCheck, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "missing boundary check crashes table indexing"},
	{Key: MechDoubleFree, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "double free of the request pool on an error path"},
	{Key: MechWrongStatus, App: taxonomy.AppApache, Trigger: taxonomy.TriggerWorkloadOnly, Description: "switch fall-through returns the wrong status"},
	{Key: MechLoadResourceLeak, App: taxonomy.AppApache, Trigger: taxonomy.TriggerResourceLeak, Description: "unknown resource leak under sustained load"},
	{Key: MechFDExhaustion, App: taxonomy.AppApache, Trigger: taxonomy.TriggerFDExhaustion, Description: "per-request descriptors never closed until the table is full"},
	{Key: MechDiskCacheFull, App: taxonomy.AppApache, Trigger: taxonomy.TriggerDiskFull, Description: "full proxy cache fails cacheable requests"},
	{Key: MechLogFileLimit, App: taxonomy.AppApache, Trigger: taxonomy.TriggerFileSizeLimit, Description: "access log at the maximum file size fails requests"},
	{Key: MechFSFull, App: taxonomy.AppApache, Trigger: taxonomy.TriggerDiskFull, Description: "full file system fails every logged request"},
	{Key: MechNetResource, App: taxonomy.AppApache, Trigger: taxonomy.TriggerNetworkResource, Description: "opaque kernel network resource exhausted"},
	{Key: MechPCMCIARemoval, App: taxonomy.AppApache, Trigger: taxonomy.TriggerNetworkResource, Description: "network card removal fails all requests"},
	{Key: MechDNSError, App: taxonomy.AppApache, Trigger: taxonomy.TriggerDNSFailure, Description: "DNS lookup errors fail requests needing hostname lookups"},
	{Key: MechProcTableFull, App: taxonomy.AppApache, Trigger: taxonomy.TriggerProcessTable, Description: "hung CGI children exhaust the process table"},
	{Key: MechClientAbort, App: taxonomy.AppApache, Trigger: taxonomy.TriggerRequestTiming, Description: "client stop at the wrong moment crashes the child"},
	{Key: MechPortSquat, App: taxonomy.AppApache, Trigger: taxonomy.TriggerProcessTable, Description: "hung children keep the listening port across restart"},
	{Key: MechDNSSlow, App: taxonomy.AppApache, Trigger: taxonomy.TriggerDNSFailure, Description: "slow DNS responses stall requests past the timeout"},
	{Key: MechSlowNetwork, App: taxonomy.AppApache, Trigger: taxonomy.TriggerSlowNetwork, Description: "saturated link fails transfers"},
	{Key: MechEntropyStarved, App: taxonomy.AppApache, Trigger: taxonomy.TriggerEntropy, Description: "ssl handshakes starve on an empty entropy pool"},
}
