package chaoshttp

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"faultstudy/internal/parallel"
	"faultstudy/internal/taxonomy"
)

// Config parameterizes an Injector (and a Middleware: both shapes share it).
type Config struct {
	// Seed drives every injection decision. Equal seeds inject identically.
	Seed int64
	// Faults is the active fault plan, applied in order; the first fault
	// applicable to a request wins (faults do not stack on one request).
	Faults []Fault
}

// Injection is one injected fault occurrence, as recorded in the log.
type Injection struct {
	// URL is the request path the fault fired on.
	URL string
	// Fault is the fault spec's name.
	Fault string
	// Class is the fault's environment-dependence class.
	Class taxonomy.FaultClass
	// At is the virtual time of the injection.
	At time.Duration
}

// URLOutcome summarizes one URL's chaos history: how often it was hit and
// whether the traffic through the injector eventually saw it healthy again.
// The RESIL experiment's survival metric is exactly Recovered.
type URLOutcome struct {
	// URL is the request path.
	URL string
	// Fault is the name of the (first) fault that fired on the URL.
	Fault string
	// Class is that fault's environment-dependence class.
	Class taxonomy.FaultClass
	// Injections counts fault firings on the URL.
	Injections int
	// FirstAt is the virtual time of the first injection.
	FirstAt time.Duration
	// RecoveredAt is the virtual time the URL was first served cleanly after
	// an injection (meaningful only when Recovered).
	RecoveredAt time.Duration
	// Recovered reports whether a clean response ever followed an injection.
	Recovered bool
}

// urlState is the injector's per-URL bookkeeping.
type urlState struct {
	fired       map[string]int // transient firings per fault name
	injections  int
	firstFault  Fault
	firstAt     time.Duration
	recoveredAt time.Duration
	recovered   bool
}

// Injector is a seed-deterministic chaos http.RoundTripper. It decides, per
// (fault, URL), whether to perturb the request, forwards untargeted traffic
// to the inner transport unchanged, and keeps an injection log plus per-URL
// outcomes for the experiment layer. It is safe for concurrent use; with a
// sequential caller (one crawl) its log order is deterministic.
type Injector struct {
	cfg   Config
	next  http.RoundTripper
	clock Clock

	mu       sync.Mutex
	requests int
	urls     map[string]*urlState
	log      []Injection
}

// NewInjector wraps next with the fault plan in cfg on the given clock. A
// nil clock panics early rather than on first latency fault.
func NewInjector(cfg Config, next http.RoundTripper, clock Clock) *Injector {
	if next == nil {
		panic("chaoshttp: nil inner transport")
	}
	if clock == nil {
		panic("chaoshttp: nil clock")
	}
	return &Injector{cfg: cfg, next: next, clock: clock, urls: make(map[string]*urlState)}
}

// targeted reports whether fault f targets the URL path under the seed: a
// pure hash decision, identical across runs, shapes, and worker counts.
func targeted(seed int64, f Fault, path string) bool {
	if f.Rate <= 0 {
		return false
	}
	if f.Rate >= 1 {
		return true
	}
	h := fnv.New64a()
	io.WriteString(h, f.Name)
	h.Write([]byte{0})
	io.WriteString(h, path)
	v := uint64(parallel.Derive(seed, h.Sum64()))
	return v%10000 < uint64(f.Rate*10000+0.5)
}

// state returns (creating if needed) the bookkeeping for one URL. Callers
// hold the lock.
func (in *Injector) state(path string) *urlState {
	st, ok := in.urls[path]
	if !ok {
		st = &urlState{fired: make(map[string]int)}
		in.urls[path] = st
	}
	return st
}

// pick decides which fault (if any) applies to this request, updates the
// bookkeeping, and appends to the injection log. Callers hold the lock.
func (in *Injector) pick(path string, at time.Duration) (Fault, bool) {
	for _, f := range in.cfg.Faults {
		applies := false
		switch {
		case f.Kind == KindHostExhaust:
			applies = in.requests > f.TriggerAfter
		case !targeted(in.cfg.Seed, f, path):
			// not this fault's URL
		case f.Transient():
			applies = in.state(path).fired[f.Name] == 0
		default:
			applies = true
		}
		if !applies {
			continue
		}
		st := in.state(path)
		st.fired[f.Name]++
		if st.injections == 0 {
			st.firstFault = f
			st.firstAt = at
		}
		st.injections++
		in.log = append(in.log, Injection{URL: path, Fault: f.Name, Class: f.Class, At: at})
		return f, true
	}
	return Fault{}, false
}

// markClean records a clean (uninjected, transport-successful) response for
// a URL: the first one after any injection is the URL's recovery.
func (in *Injector) markClean(path string, at time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.urls[path]
	if !ok || st.injections == 0 || st.recovered {
		return
	}
	st.recovered = true
	st.recoveredAt = at
}

// RoundTrip applies the fault plan to one request. Untargeted requests pass
// through unchanged; targeted ones are perturbed per the fault's kind.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	path := req.URL.Path
	in.mu.Lock()
	in.requests++
	f, injected := in.pick(path, in.clock.Now())
	in.mu.Unlock()

	if !injected {
		resp, err := in.next.RoundTrip(req)
		if err == nil {
			in.markClean(path, in.clock.Now())
		}
		return resp, err
	}

	switch f.Kind {
	case KindStatusOnce, KindStatusAlways:
		return syntheticResponse(req, f), nil
	case KindConnResetOnce:
		return nil, ErrInjectedReset
	case KindDNSOnce:
		return nil, ErrInjectedDNS
	case KindHostExhaust:
		return nil, ErrInjectedExhaust
	case KindLatencyOnce, KindSlowAlways:
		in.clock.Advance(f.Latency)
		return in.next.RoundTrip(req)
	case KindTruncateOnce:
		resp, err := in.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		return truncateBody(resp)
	default:
		return nil, fmt.Errorf("chaoshttp: unknown fault kind %d", f.Kind)
	}
}

// Injections returns a copy of the injection log, in firing order.
func (in *Injector) Injections() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Injection, len(in.log))
	copy(out, in.log)
	return out
}

// Outcomes returns the per-URL chaos outcomes, sorted by first-injection
// time then URL so reports are deterministic.
func (in *Injector) Outcomes() []URLOutcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]URLOutcome, 0, len(in.urls))
	for path, st := range in.urls {
		if st.injections == 0 {
			continue
		}
		out = append(out, URLOutcome{
			URL:         path,
			Fault:       st.firstFault.Name,
			Class:       st.firstFault.Class,
			Injections:  st.injections,
			FirstAt:     st.firstAt,
			RecoveredAt: st.recoveredAt,
			Recovered:   st.recovered,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstAt != out[j].FirstAt {
			return out[i].FirstAt < out[j].FirstAt
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// syntheticResponse builds the injected error response for the status kinds,
// complete with a consistent Content-Length and an optional Retry-After
// hint the resilient client can honor.
func syntheticResponse(req *http.Request, f Fault) *http.Response {
	body := fmt.Sprintf("chaos: injected %s\n", f.Name)
	h := make(http.Header)
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if f.RetryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(int(f.RetryAfter/time.Second)))
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", f.Status, http.StatusText(f.Status)),
		StatusCode:    f.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncateBody rewrites resp so its body carries only the first half of the
// payload while the Content-Length header still declares the full size —
// the silent-truncation fault a length-checking client can detect.
func truncateBody(resp *http.Response) (*http.Response, error) {
	full, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	cut := full[:len(full)/2]
	resp.Header.Set("Content-Length", strconv.Itoa(len(full)))
	resp.ContentLength = int64(len(full))
	resp.Body = io.NopCloser(strings.NewReader(string(cut)))
	return resp, nil
}
