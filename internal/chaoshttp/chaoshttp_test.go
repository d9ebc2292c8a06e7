package chaoshttp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"faultstudy/internal/resilient"
	"faultstudy/internal/taxonomy"
)

// okHandler serves a fixed body on every path.
func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
}

// get performs one GET through the injector-backed client stack.
func get(t *testing.T, rt http.RoundTripper, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

func TestTargetedIsPureAndRateShaped(t *testing.T) {
	f := Fault{Name: "edt/503-once", Rate: 0.25}
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/bugdb/pr/%d", i)
		a := targeted(42, f, path)
		if b := targeted(42, f, path); a != b {
			t.Fatalf("targeted(42, %s) not deterministic", path)
		}
		if a {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("rate 0.25 targeted %.3f of %d URLs", frac, n)
	}
	if targeted(42, Fault{Name: "x", Rate: 0}, "/a") {
		t.Error("rate 0 must target nothing")
	}
	if !targeted(42, Fault{Name: "x", Rate: 1}, "/a") {
		t.Error("rate 1 must target everything")
	}
	// Different seeds disagree on at least some URLs.
	diff := 0
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/bugdb/pr/%d", i)
		if targeted(42, f, path) != targeted(43, f, path) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 42 and 43 target identical URL sets")
	}
}

func TestInjectorTransientFiresOnceThenHeals(t *testing.T) {
	clock := NewVirtualClock()
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edt/503-once", Class: taxonomy.ClassEnvDependentTransient, Kind: KindStatusOnce,
			Rate: 1, Status: 503, RetryAfter: 2 * time.Second},
	}}, HandlerTransport{Handler: okHandler("fine")}, clock)

	resp, err := get(t, inj, "http://chaos.test/a")
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("first request: %v %v, want injected 503", resp, err)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want 2", ra)
	}
	clock.Advance(time.Second)
	resp, err = get(t, inj, "http://chaos.test/a")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("second request: %v %v, want healed 200", resp, err)
	}
	outs := inj.Outcomes()
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := outs[0]
	if !o.Recovered || o.Injections != 1 || o.RecoveredAt != time.Second {
		t.Errorf("outcome = %+v, want recovered at 1s after 1 injection", o)
	}
}

func TestInjectorPersistentNeverHeals(t *testing.T) {
	clock := NewVirtualClock()
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edn/persistent-500", Class: taxonomy.ClassEnvDependentNonTransient,
			Kind: KindStatusAlways, Rate: 1, Status: 500},
	}}, HandlerTransport{Handler: okHandler("fine")}, clock)
	for i := 0; i < 3; i++ {
		resp, err := get(t, inj, "http://chaos.test/a")
		if err != nil || resp.StatusCode != 500 {
			t.Fatalf("request %d: %v %v, want persistent 500", i, resp, err)
		}
	}
	o := inj.Outcomes()[0]
	if o.Recovered || o.Injections != 3 {
		t.Errorf("outcome = %+v, want 3 injections and no recovery", o)
	}
}

func TestInjectorTransportErrors(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want error
	}{
		{KindConnResetOnce, ErrInjectedReset},
		{KindDNSOnce, ErrInjectedDNS},
	} {
		clock := NewVirtualClock()
		inj := NewInjector(Config{Seed: 1, Faults: []Fault{
			{Name: "f", Class: taxonomy.ClassEnvDependentTransient, Kind: tc.kind, Rate: 1},
		}}, HandlerTransport{Handler: okHandler("fine")}, clock)
		if _, err := get(t, inj, "http://chaos.test/a"); !errors.Is(err, tc.want) {
			t.Errorf("kind %d: err = %v, want %v", tc.kind, err, tc.want)
		}
		if resp, err := get(t, inj, "http://chaos.test/a"); err != nil || resp.StatusCode != 200 {
			t.Errorf("kind %d: did not heal: %v %v", tc.kind, resp, err)
		}
	}
}

func TestInjectorHostExhaust(t *testing.T) {
	clock := NewVirtualClock()
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edn/fd-exhausted", Class: taxonomy.ClassEnvDependentNonTransient,
			Kind: KindHostExhaust, TriggerAfter: 2},
	}}, HandlerTransport{Handler: okHandler("fine")}, clock)
	for i := 0; i < 2; i++ {
		if resp, err := get(t, inj, fmt.Sprintf("http://chaos.test/%d", i)); err != nil || resp.StatusCode != 200 {
			t.Fatalf("pre-trigger request %d failed: %v %v", i, resp, err)
		}
	}
	for i := 2; i < 5; i++ {
		if _, err := get(t, inj, fmt.Sprintf("http://chaos.test/%d", i)); !errors.Is(err, ErrInjectedExhaust) {
			t.Errorf("post-trigger request %d: err = %v, want exhaustion", i, err)
		}
	}
}

func TestInjectorLatencyAdvancesClock(t *testing.T) {
	clock := NewVirtualClock()
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edt/latency-spike", Class: taxonomy.ClassEnvDependentTransient,
			Kind: KindLatencyOnce, Rate: 1, Latency: 15 * time.Second},
	}}, HandlerTransport{Handler: okHandler("fine")}, clock)
	resp, err := get(t, inj, "http://chaos.test/a")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("latency fault should still serve: %v %v", resp, err)
	}
	if clock.Now() != 15*time.Second {
		t.Errorf("clock advanced %v, want 15s", clock.Now())
	}
}

// TestInjectorLatencyBoundedByDeadline: on the wall clock, a latency fault
// sleeps only until the request's deadline, never its full length.
func TestInjectorLatencyBoundedByDeadline(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edn/slow-forever", Class: taxonomy.ClassEnvDependentNonTransient,
			Kind: KindSlowAlways, Rate: 1, Latency: 10 * time.Second},
	}}, HandlerTransport{Handler: okHandler("fine")}, resilient.NewRealClock())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://chaos.test/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := inj.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the request's deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("latency fault held the request %v past its 50ms deadline", took)
	}
}

func TestInjectorTruncation(t *testing.T) {
	clock := NewVirtualClock()
	inj := NewInjector(Config{Seed: 1, Faults: []Fault{
		{Name: "edt/truncated-body", Class: taxonomy.ClassEnvDependentTransient,
			Kind: KindTruncateOnce, Rate: 1},
	}}, HandlerTransport{Handler: okHandler("0123456789")}, clock)
	resp, err := get(t, inj, "http://chaos.test/a")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "01234" || resp.ContentLength != 10 {
		t.Errorf("body %q with Content-Length %d, want half body under full length", body, resp.ContentLength)
	}
}

func TestInjectorDeterministicLog(t *testing.T) {
	run := func() []Injection {
		clock := NewVirtualClock()
		inj := NewInjector(Config{Seed: 99, Faults: Catalog()[:6]}, // the EDT faults
			HandlerTransport{Handler: okHandler("fine")}, clock)
		for i := 0; i < 50; i++ {
			resp, err := get(t, inj, fmt.Sprintf("http://chaos.test/bugdb/pr/%d", i))
			if err == nil {
				resp.Body.Close()
			}
			clock.Advance(time.Millisecond)
		}
		return inj.Injections()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("catalogue injected nothing over 50 URLs")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("two identical runs logged different injections:\n%v\n%v", a, b)
	}
}

func TestHandlerTransportSetsContentLength(t *testing.T) {
	resp, err := get(t, HandlerTransport{Handler: okHandler("hello")}, "http://chaos.test/a")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != 5 {
		t.Errorf("ContentLength = %d, want 5", resp.ContentLength)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "hello" {
		t.Errorf("body = %q", body)
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock()
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(3 * time.Second)
	c.Advance(-time.Second) // ignored
	if c.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", c.Now())
	}
	if err := c.Sleep(context.Background(), 2*time.Second); err != nil || c.Now() != 5*time.Second {
		t.Errorf("Sleep: err=%v now=%v, want nil/5s", err, c.Now())
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(canceled, time.Second); err == nil {
		t.Error("Sleep under a canceled context must fail")
	}
	ctx, cancelT := c.WithTimeout(context.Background(), time.Second)
	defer cancelT()
	if ctx.Err() != nil {
		t.Error("virtual WithTimeout must not expire the context for real")
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 9 {
		t.Fatalf("catalogue has %d faults, want 9", len(cat))
	}
	seen := make(map[string]bool)
	for i, f := range cat {
		if seen[f.Name] {
			t.Errorf("duplicate fault name %q", f.Name)
		}
		seen[f.Name] = true
		wantEDT := i < 6
		if got := f.Class == taxonomy.ClassEnvDependentTransient; got != wantEDT {
			t.Errorf("fault %q: class %v out of catalogue order", f.Name, f.Class)
		}
		if f.Transient() != wantEDT {
			t.Errorf("fault %q: Transient() = %v", f.Name, f.Transient())
		}
		if !strings.HasPrefix(f.Name, "edt/") && !strings.HasPrefix(f.Name, "edn/") {
			t.Errorf("fault %q: name lacks a class prefix", f.Name)
		}
	}
}
