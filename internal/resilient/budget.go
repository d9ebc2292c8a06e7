package resilient

import "sync"

// budget is a token-bucket retry budget: the client-side defence against
// retry storms. Every first attempt deposits Earn tokens (capped at Burst);
// every retry withdraws one whole token. Under a healthy workload the bucket
// stays full and retries are free; when a large fraction of requests start
// failing — the signature of a nontransient environmental condition rather
// than scattered transient blips — the bucket drains and the client stops
// amplifying load, exactly the regime the paper's EDN faults create.
//
// A budget is safe for concurrent use: one client's concurrent requests
// share it, so the storm limit covers all of them.
type budget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	earn   float64
}

// newBudget builds a budget holding burst tokens initially (and at most),
// earning earn tokens per first attempt. earn is clamped at non-negative;
// burst below 1 disables retries entirely.
func newBudget(burst, earn float64) *budget {
	if burst < 0 {
		burst = 0
	}
	if earn < 0 {
		earn = 0
	}
	return &budget{tokens: burst, burst: burst, earn: earn}
}

// deposit credits the budget for one first attempt.
func (b *budget) deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.earn
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// withdraw takes one token for a retry, reporting false (and taking
// nothing) when the budget is exhausted.
func (b *budget) withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
