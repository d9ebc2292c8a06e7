// Package chaoshttp injects classified environmental faults into HTTP
// traffic, deterministically. It is the mining pipeline's chaos layer: the
// paper's taxonomy (environment-dependent-transient and -nontransient
// faults, §4) made executable at the transport boundary, so the crawler and
// its resilient client can be measured fault-class by fault-class instead of
// only reasoned about.
//
// Faults enter in one place: Injector, an http.RoundTripper that wraps any
// inner transport (the in-memory HandlerTransport in experiments, a real
// transport in the CLI, whether it talks to a live tracker or a simulated
// one) and perturbs requests on the client side, beneath the resilient
// client that is to recover from them.
//
// Every decision is drawn from the configured seed alone: a fault targets a
// URL iff a SplitMix64-derived hash of (seed, fault, path) falls under the
// fault's rate, so two runs with equal seeds inject the same faults at the
// same URLs regardless of worker count or interleaving. Transient (EDT) faults fire once per URL and then heal — the
// retry-survivable case; nontransient (EDN) faults persist for the life of
// the injector — the case the paper predicts generic recovery cannot help.
package chaoshttp

import (
	"errors"
	"time"

	"faultstudy/internal/taxonomy"
)

// Kind is the mechanical behaviour of one fault spec.
type Kind int

const (
	// KindStatusOnce serves one synthetic error status (with a Retry-After
	// hint) for the first request to a targeted URL, then heals. EDT.
	KindStatusOnce Kind = iota
	// KindConnResetOnce fails the first request to a targeted URL with a
	// connection-reset transport error, then heals. EDT.
	KindConnResetOnce
	// KindLatencyOnce delays the first response from a targeted URL past any
	// sane per-try deadline, then heals — a one-off latency spike. EDT.
	KindLatencyOnce
	// KindTruncateOnce serves the first response from a targeted URL with
	// its body cut short of the declared Content-Length, then heals. EDT.
	KindTruncateOnce
	// KindDNSOnce fails the first request to a targeted URL with a
	// transient name-resolution error, then heals. EDT.
	KindDNSOnce
	// KindStatusAlways serves a synthetic error status for every request to
	// a targeted URL — a persistent server-side fault. EDN.
	KindStatusAlways
	// KindHostExhaust fails every request, regardless of URL, once the
	// injector has seen TriggerAfter requests — descriptor/quota exhaustion
	// in the manner of simenv's resource tables. EDN.
	KindHostExhaust
	// KindSlowAlways delays every response from a targeted URL past any
	// per-try deadline, forever. EDN.
	KindSlowAlways
)

// Fault is one injectable fault spec: a named, classified behaviour plus its
// parameters. The catalogue constructors return the specs the RESIL
// experiment sweeps; callers may also build their own.
type Fault struct {
	// Name identifies the fault in logs, metrics, and reports
	// (e.g. "edt/503-once").
	Name string
	// Class is the paper's environment-dependence class for this fault.
	Class taxonomy.FaultClass
	// Kind selects the mechanical behaviour.
	Kind Kind
	// Rate is the fraction of URLs targeted, in [0, 1]. KindHostExhaust
	// ignores it (exhaustion is host-wide).
	Rate float64
	// Status is the synthetic status code for the status kinds.
	Status int
	// RetryAfter, when nonzero, is sent as a Retry-After header (whole
	// seconds) with synthetic statuses.
	RetryAfter time.Duration
	// Latency is the injected delay for the latency kinds.
	Latency time.Duration
	// TriggerAfter is the request count at which KindHostExhaust trips.
	TriggerAfter int
}

// Transient reports whether the fault heals after firing once per URL.
func (f Fault) Transient() bool { return f.Class == taxonomy.ClassEnvDependentTransient }

// Injected errors, distinguishable by errors.Is so clients and tests can
// assert on the exact mechanism.
var (
	// ErrInjectedReset is the synthetic connection-reset transport error.
	ErrInjectedReset = errors.New("chaoshttp: connection reset by peer (injected)")
	// ErrInjectedDNS is the synthetic transient name-resolution error.
	ErrInjectedDNS = errors.New("chaoshttp: temporary failure in name resolution (injected)")
	// ErrInjectedExhaust is the synthetic descriptor/quota-exhaustion error.
	ErrInjectedExhaust = errors.New("chaoshttp: cannot assign requested address: descriptor table full (injected)")
)

// Catalog returns the full fault catalogue in a fixed order the RESIL
// experiment's arm numbering relies on. The transient (EDT) faults come
// first: each fires once per targeted URL and then heals, so a
// state-preserving retry is expected to survive it — the paper's EDT column
// made mechanical. The nontransient (EDN) faults persist for the injector's
// lifetime, so no amount of state-preserving retry changes the outcome — the
// paper's negative result for generic recovery.
func Catalog() []Fault {
	return []Fault{
		{Name: "edt/503-once", Class: taxonomy.ClassEnvDependentTransient, Kind: KindStatusOnce,
			Rate: 0.25, Status: 503, RetryAfter: 1 * time.Second},
		{Name: "edt/429-once", Class: taxonomy.ClassEnvDependentTransient, Kind: KindStatusOnce,
			Rate: 0.25, Status: 429, RetryAfter: 1 * time.Second},
		{Name: "edt/conn-reset", Class: taxonomy.ClassEnvDependentTransient, Kind: KindConnResetOnce,
			Rate: 0.25},
		{Name: "edt/latency-spike", Class: taxonomy.ClassEnvDependentTransient, Kind: KindLatencyOnce,
			Rate: 0.25, Latency: 15 * time.Second},
		{Name: "edt/truncated-body", Class: taxonomy.ClassEnvDependentTransient, Kind: KindTruncateOnce,
			Rate: 0.25},
		{Name: "edt/dns-flap", Class: taxonomy.ClassEnvDependentTransient, Kind: KindDNSOnce,
			Rate: 0.25},
		{Name: "edn/persistent-500", Class: taxonomy.ClassEnvDependentNonTransient, Kind: KindStatusAlways,
			Rate: 0.25, Status: 500},
		{Name: "edn/fd-exhausted", Class: taxonomy.ClassEnvDependentNonTransient, Kind: KindHostExhaust,
			TriggerAfter: 40},
		{Name: "edn/slow-forever", Class: taxonomy.ClassEnvDependentNonTransient, Kind: KindSlowAlways,
			Rate: 0.25, Latency: 30 * time.Second},
	}
}
