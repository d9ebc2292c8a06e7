package traffic

import "time"

// SLO is a service-level objective over a request stream: at least Objective
// of all requests must be good, where good means served (ok, not refused,
// errored, or lost) within the Latency threshold.
type SLO struct {
	// Objective is the target good fraction, e.g. 0.999 for three nines.
	Objective float64
	// Latency is the threshold a served request must beat to count as good.
	Latency time.Duration
}

// DefaultSLO is the serving tier's objective: 99.9% of requests served
// within 50 virtual milliseconds.
func DefaultSLO() SLO {
	return SLO{Objective: 0.999, Latency: 50 * time.Millisecond}
}

// Outcome classifies a served request's latency against the threshold —
// the ok/slow split the serving tier records.
func (s SLO) Outcome(latency time.Duration) string {
	if latency <= s.Latency {
		return OutcomeOK
	}
	return OutcomeSlow
}

// Burn reports how many multiples of the error budget the bad requests
// consumed: bad / (total * (1 - Objective)). A burn of 1.0 means the stream
// spent exactly its budget; a process restart that loses thousands of
// requests burns hundreds of budgets. Zero-length streams burn nothing.
func (s SLO) Burn(bad, total int) float64 {
	if total == 0 {
		return 0
	}
	budget := float64(total) * (1 - s.Objective)
	if budget <= 0 {
		// A 100% objective has no budget: any badness is infinite burn,
		// reported as the bad count to stay finite and comparable.
		return float64(bad)
	}
	return float64(bad) / budget
}
