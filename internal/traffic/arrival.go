package traffic

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Arrivals is an open-loop arrival process: Next returns the gap until the
// next request arrives, drawing any randomness from the caller's seeded rng
// so the whole schedule is a pure function of the seed.
type Arrivals interface {
	// Next returns the inter-arrival gap before the next request.
	Next(rng *rand.Rand) time.Duration
}

// FixedRate arrives exactly every Interval — the deterministic pacing used
// where analytic in-window arithmetic matters more than realism.
type FixedRate struct {
	// Interval is the constant inter-arrival gap.
	Interval time.Duration
}

// Next returns the constant gap.
func (f FixedRate) Next(*rand.Rand) time.Duration { return f.Interval }

// Poisson is a Poisson arrival process: exponentially distributed
// inter-arrival gaps with the given mean — the classic open-loop model of
// independent users who do not coordinate their clicks.
type Poisson struct {
	// MeanGap is the mean inter-arrival gap (1/λ).
	MeanGap time.Duration
}

// Next draws one exponential gap from the caller's rng.
func (p Poisson) Next(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(p.MeanGap))
}

// ParseArrivals parses an arrival-process spec of the form
//
//	poisson:<mean-gap> | fixed:<interval>
//
// e.g. "poisson:1ms" (Poisson arrivals, 1000 requests per simulated second on
// average) or "fixed:2ms". The duration is any positive time.ParseDuration
// string.
func ParseArrivals(spec string) (Arrivals, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("traffic: arrival spec %q has no ':' (want poisson:<gap> or fixed:<gap>)", spec)
	}
	gap, err := time.ParseDuration(strings.TrimSpace(arg))
	if err != nil {
		return nil, fmt.Errorf("traffic: arrival spec %q has a bad gap: %v", spec, err)
	}
	if gap <= 0 {
		return nil, fmt.Errorf("traffic: arrival spec %q needs a positive gap", spec)
	}
	switch strings.TrimSpace(kind) {
	case "poisson":
		return Poisson{MeanGap: gap}, nil
	case "fixed":
		return FixedRate{Interval: gap}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown arrival process %q (want poisson or fixed)", kind)
	}
}
