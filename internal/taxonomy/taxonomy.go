// Package taxonomy defines the fault-classification vocabulary of Chandra &
// Chen (DSN 2000): the three fault classes ordered by their dependence on the
// operating environment, the environmental trigger kinds observed in the
// study, failure symptoms, and report severities.
//
// The taxonomy is deliberately small and closed: the study's entire argument
// rests on partitioning faults into environment-independent,
// environment-dependent-nontransient, and environment-dependent-transient
// classes, so the types here are enums with explicit parsing and validation
// rather than free-form strings.
package taxonomy

import (
	"fmt"
	"strings"
)

// FaultClass partitions faults by how they depend on the operating
// environment (paper §3).
type FaultClass int

const (
	// ClassUnknown marks a fault that has not been classified yet.
	ClassUnknown FaultClass = iota
	// ClassEnvIndependent faults occur independent of the operating
	// environment: given a specific workload the fault always occurs. They
	// are completely deterministic (Bohrbugs); application-generic recovery
	// cannot survive them.
	ClassEnvIndependent
	// ClassEnvDependentNonTransient faults depend on an environmental
	// condition that is unlikely to be fixed during retry (full disk,
	// exhausted file descriptors, oversized log file, ...).
	ClassEnvDependentNonTransient
	// ClassEnvDependentTransient faults depend on an environmental condition
	// that is likely to change on retry (thread interleavings, DNS blips,
	// request timing, ...). These are the classic Heisenbugs that process
	// pairs and rollback-retry survive.
	ClassEnvDependentTransient
)

// classNames maps FaultClass values to their canonical names. The names match
// the paper's terminology.
var classNames = map[FaultClass]string{
	ClassUnknown:                  "unknown",
	ClassEnvIndependent:           "environment-independent",
	ClassEnvDependentNonTransient: "environment-dependent-nontransient",
	ClassEnvDependentTransient:    "environment-dependent-transient",
}

// String returns the paper's name for the class.
func (c FaultClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("FaultClass(%d)", int(c))
}

// Short returns the compact abbreviation used in tables: EI, EDN, EDT.
func (c FaultClass) Short() string {
	switch c {
	case ClassEnvIndependent:
		return "EI"
	case ClassEnvDependentNonTransient:
		return "EDN"
	case ClassEnvDependentTransient:
		return "EDT"
	default:
		return "?"
	}
}

// Valid reports whether c is one of the three study classes.
func (c FaultClass) Valid() bool {
	return c == ClassEnvIndependent || c == ClassEnvDependentNonTransient || c == ClassEnvDependentTransient
}

// ParseClass parses a class name in any of the accepted spellings
// (full paper name, short form, or common aliases). Matching is
// case-insensitive.
func ParseClass(s string) (FaultClass, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "environment-independent", "env-independent", "ei", "bohrbug", "deterministic":
		return ClassEnvIndependent, nil
	case "environment-dependent-nontransient", "env-dependent-nontransient", "edn", "nontransient":
		return ClassEnvDependentNonTransient, nil
	case "environment-dependent-transient", "env-dependent-transient", "edt", "transient", "heisenbug":
		return ClassEnvDependentTransient, nil
	case "unknown", "":
		return ClassUnknown, nil
	}
	return ClassUnknown, fmt.Errorf("taxonomy: unrecognized fault class %q", s)
}

// Classes returns the three study classes in table order.
func Classes() []FaultClass {
	return []FaultClass{ClassEnvIndependent, ClassEnvDependentNonTransient, ClassEnvDependentTransient}
}

// TriggerKind names the environmental condition (or lack of one) that
// triggers a fault. The kinds enumerate the concrete triggers the paper
// describes in §5.1–5.3 for the environment-dependent faults, plus
// TriggerWorkloadOnly for environment-independent faults.
type TriggerKind int

const (
	// TriggerUnknownKind is the zero value; reports that do not identify a
	// trigger carry it.
	TriggerUnknownKind TriggerKind = iota
	// TriggerWorkloadOnly marks environment-independent faults: the workload
	// alone triggers the bug.
	TriggerWorkloadOnly
	// TriggerResourceLeak is an application-held resource leak (memory,
	// process slots) that accumulates under load and persists across a
	// state-preserving recovery.
	TriggerResourceLeak
	// TriggerFDExhaustion is exhaustion of file descriptors.
	TriggerFDExhaustion
	// TriggerDiskFull is a full file system or full application disk cache.
	TriggerDiskFull
	// TriggerFileSizeLimit is a file (log or database) exceeding the maximum
	// allowed file size.
	TriggerFileSizeLimit
	// TriggerNetworkResource is exhaustion or removal of a network resource
	// (unknown network resource, PCMCIA card removal).
	TriggerNetworkResource
	// TriggerHostConfig is a persistent host-configuration condition
	// (changed hostname, missing reverse DNS, illegal file owner field).
	TriggerHostConfig
	// TriggerDNSFailure is a DNS error or slow DNS response that is likely to
	// be fixed on retry.
	TriggerDNSFailure
	// TriggerProcessTable is exhaustion of process-table slots or ports by
	// hung children that a recovery system would kill.
	TriggerProcessTable
	// TriggerRequestTiming is dependence on the exact timing of workload
	// requests (user presses stop mid-download).
	TriggerRequestTiming
	// TriggerRace is a race condition: dependence on thread-scheduling or
	// signal-delivery interleavings.
	TriggerRace
	// TriggerSlowNetwork is a transiently slow network connection.
	TriggerSlowNetwork
	// TriggerEntropy is starvation of the kernel entropy pool
	// (/dev/random).
	TriggerEntropy
)

var triggerNames = map[TriggerKind]string{
	TriggerUnknownKind:     "unknown",
	TriggerWorkloadOnly:    "workload-only",
	TriggerResourceLeak:    "resource-leak",
	TriggerFDExhaustion:    "fd-exhaustion",
	TriggerDiskFull:        "disk-full",
	TriggerFileSizeLimit:   "file-size-limit",
	TriggerNetworkResource: "network-resource",
	TriggerHostConfig:      "host-config",
	TriggerDNSFailure:      "dns-failure",
	TriggerProcessTable:    "process-table",
	TriggerRequestTiming:   "request-timing",
	TriggerRace:            "race",
	TriggerSlowNetwork:     "slow-network",
	TriggerEntropy:         "entropy",
}

// String returns the canonical trigger name.
func (k TriggerKind) String() string {
	if s, ok := triggerNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TriggerKind(%d)", int(k))
}

// ParseTrigger parses a canonical trigger name (as produced by String).
func ParseTrigger(s string) (TriggerKind, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	for k, name := range triggerNames {
		if name == want {
			return k, nil
		}
	}
	return TriggerUnknownKind, fmt.Errorf("taxonomy: unrecognized trigger kind %q", s)
}

// DefaultClass returns the fault class a trigger kind implies under the
// paper's classification rules (§5): workload-only triggers are
// environment-independent; persistent conditions are nontransient; timing and
// self-healing conditions are transient. TriggerUnknownKind maps to
// ClassUnknown.
func (k TriggerKind) DefaultClass() FaultClass {
	switch k {
	case TriggerWorkloadOnly:
		return ClassEnvIndependent
	case TriggerResourceLeak, TriggerFDExhaustion, TriggerDiskFull,
		TriggerFileSizeLimit, TriggerNetworkResource, TriggerHostConfig:
		return ClassEnvDependentNonTransient
	case TriggerDNSFailure, TriggerProcessTable, TriggerRequestTiming,
		TriggerRace, TriggerSlowNetwork, TriggerEntropy:
		return ClassEnvDependentTransient
	default:
		return ClassUnknown
	}
}

// Symptom is the observable failure mode of a fault. The study restricts
// itself to high-impact faults (paper §4): crashes, error returns, security
// problems, and hangs.
type Symptom int

const (
	// SymptomUnknown is the zero value.
	SymptomUnknown Symptom = iota
	// SymptomCrash covers segfaults, core dumps, and aborts.
	SymptomCrash
	// SymptomError covers wrong or error results returned to the client.
	SymptomError
	// SymptomHang covers freezes and stopped responses.
	SymptomHang
	// SymptomSecurity covers security problems.
	SymptomSecurity
)

var symptomNames = map[Symptom]string{
	SymptomUnknown:  "unknown",
	SymptomCrash:    "crash",
	SymptomError:    "error",
	SymptomHang:     "hang",
	SymptomSecurity: "security",
}

// String returns the canonical symptom name.
func (s Symptom) String() string {
	if n, ok := symptomNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Symptom(%d)", int(s))
}

// ParseSymptom parses a canonical symptom name.
func ParseSymptom(v string) (Symptom, error) {
	want := strings.ToLower(strings.TrimSpace(v))
	for s, name := range symptomNames {
		if name == want {
			return s, nil
		}
	}
	return SymptomUnknown, fmt.Errorf("taxonomy: unrecognized symptom %q", v)
}

// HighImpact reports whether the symptom meets the study's inclusion bar
// (crash, error, hang, or security problem).
func (s Symptom) HighImpact() bool {
	switch s {
	case SymptomCrash, SymptomError, SymptomHang, SymptomSecurity:
		return true
	default:
		return false
	}
}

// Severity is the tracker-assigned severity of a bug report. The study keeps
// only reports categorized as severe or critical (paper §4).
type Severity int

const (
	// SeverityUnknown is the zero value for reports without a severity field.
	SeverityUnknown Severity = iota
	// SeverityWishlist is a feature request.
	SeverityWishlist
	// SeverityMinor is a cosmetic or low-impact bug.
	SeverityMinor
	// SeverityNormal is a routine bug.
	SeverityNormal
	// SeveritySerious is a severe bug (GNATS "serious").
	SeveritySerious
	// SeverityCritical is a critical bug.
	SeverityCritical
)

var severityNames = map[Severity]string{
	SeverityUnknown:  "unknown",
	SeverityWishlist: "wishlist",
	SeverityMinor:    "minor",
	SeverityNormal:   "normal",
	SeveritySerious:  "serious",
	SeverityCritical: "critical",
}

// String returns the canonical severity name.
func (s Severity) String() string {
	if n, ok := severityNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// ParseSeverity parses a severity name. GNATS spellings ("serious",
// "critical", "non-critical") and debbugs spellings ("grave", "important")
// are accepted.
func ParseSeverity(v string) (Severity, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "wishlist", "enhancement":
		return SeverityWishlist, nil
	case "minor", "trivial", "cosmetic":
		return SeverityMinor, nil
	case "normal", "non-critical":
		return SeverityNormal, nil
	case "serious", "severe", "important", "major":
		return SeveritySerious, nil
	case "critical", "grave", "showstopper":
		return SeverityCritical, nil
	case "unknown", "":
		return SeverityUnknown, nil
	}
	return SeverityUnknown, fmt.Errorf("taxonomy: unrecognized severity %q", v)
}

// Qualifies reports whether the severity meets the study's inclusion bar
// (serious or critical).
func (s Severity) Qualifies() bool {
	return s == SeveritySerious || s == SeverityCritical
}

// Application identifies one of the three studied applications, or an
// extension archetype added after the paper's study.
type Application int

const (
	// AppUnknown is the zero value.
	AppUnknown Application = iota
	// AppApache is the Apache web server.
	AppApache
	// AppGnome is the GNOME desktop environment.
	AppGnome
	// AppMySQL is the MySQL database server.
	AppMySQL
	// AppCache is the LRU cache daemon — an extension archetype outside the
	// paper's three studied applications (it is absent from Applications()
	// and from every paper-table path; the generated-corpus experiments use
	// it to test whether the taxonomy holds beyond the studied set).
	AppCache
)

var appNames = map[Application]string{
	AppUnknown: "unknown",
	AppApache:  "apache",
	AppGnome:   "gnome",
	AppMySQL:   "mysql",
	AppCache:   "cached",
}

// String returns the lowercase application name.
func (a Application) String() string {
	if n, ok := appNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Application(%d)", int(a))
}

// ParseApplication parses an application name.
func ParseApplication(v string) (Application, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "apache", "httpd":
		return AppApache, nil
	case "gnome":
		return AppGnome, nil
	case "mysql", "mysqld":
		return AppMySQL, nil
	case "cached", "cache":
		return AppCache, nil
	}
	return AppUnknown, fmt.Errorf("taxonomy: unrecognized application %q", v)
}

// Applications returns the three studied applications in paper order.
func Applications() []Application {
	return []Application{AppApache, AppGnome, AppMySQL}
}
