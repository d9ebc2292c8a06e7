package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faultstudy/internal/breaker"
)

// fakeClock is a test virtual clock: Sleep advances it, WithTimeout is a
// stamp-only no-op (the client enforces per-try deadlines post hoc).
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.advance(d)
	return nil
}

func (c *fakeClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return ctx, func() {}
}

// scriptTransport serves a scripted sequence of outcomes, then repeats the
// last one. Each step may also advance the clock, simulating a slow attempt.
type scriptTransport struct {
	mu    sync.Mutex
	clock *fakeClock
	steps []scriptStep
	calls int
}

type scriptStep struct {
	status  int
	header  http.Header
	body    string
	declare int64 // Content-Length to declare (-1 = len(body))
	err     error
	cost    time.Duration
}

func (s *scriptTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	step := s.steps[len(s.steps)-1]
	if s.calls < len(s.steps) {
		step = s.steps[s.calls]
	}
	s.calls++
	s.mu.Unlock()
	if step.cost > 0 {
		s.clock.advance(step.cost)
	}
	if step.err != nil {
		return nil, step.err
	}
	declared := step.declare
	if declared == -1 {
		declared = int64(len(step.body))
	}
	h := step.header
	if h == nil {
		h = make(http.Header)
	}
	return &http.Response{
		StatusCode: step.status,
		Status:     fmt.Sprintf("%d %s", step.status, http.StatusText(step.status)),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1, ProtoMinor: 1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(step.body)),
		ContentLength: declared,
		Request:       req,
	}, nil
}

func (s *scriptTransport) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func doGet(t *testing.T, c *Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.RoundTrip(req)
}

func TestNaiveGivesUpImmediately(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{err: errors.New("boom")},
		{status: 200, body: "fine", declare: -1},
	}}
	c := New(NaivePolicy(), WithTransport(st), WithClock(clock))
	if _, err := doGet(t, c, "http://h/x"); err == nil {
		t.Fatal("naive client should surface the first failure")
	}
	if st.callCount() != 1 {
		t.Errorf("naive client made %d attempts, want 1", st.callCount())
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{err: errors.New("reset")},
		{status: 503, body: "busy", declare: -1},
		{status: 200, body: "fine", declare: -1},
	}}
	c := New(RetryPolicy(), WithTransport(st), WithClock(clock), WithRand(rand.New(rand.NewSource(1))))
	resp, err := doGet(t, c, "http://h/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("got %v %v, want a recovered 200", resp, err)
	}
	stats := c.Stats()
	if stats.Retries != 2 || stats.Successes != 1 {
		t.Errorf("stats = %+v, want 2 retries and 1 success", stats)
	}
	if clock.Now() == 0 {
		t.Error("retries should have slept backoff on the clock")
	}
}

func TestGiveUpReturnsLastResponse(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{{status: 500, body: "dead", declare: -1}}}
	c := New(RetryPolicy(), WithTransport(st), WithClock(clock))
	resp, err := doGet(t, c, "http://h/x")
	if err != nil {
		t.Fatalf("exhausted attempts on a status should return the response, got %v", err)
	}
	if resp.StatusCode != 500 {
		t.Errorf("status = %d, want the real 500", resp.StatusCode)
	}
	if got := c.Stats().GiveUps; got != 1 {
		t.Errorf("give-ups = %d, want 1", got)
	}
	if st.callCount() != RetryPolicy().MaxAttempts {
		t.Errorf("made %d attempts, want %d", st.callCount(), RetryPolicy().MaxAttempts)
	}
}

func TestRetryAfterHonoredAndCapped(t *testing.T) {
	h := make(http.Header)
	h.Set("Retry-After", "3600")
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{status: 429, body: "slow down", declare: -1, header: h},
		{status: 200, body: "fine", declare: -1},
	}}
	c := New(RetryPolicy(), WithTransport(st), WithClock(clock), WithRand(nil))
	resp, err := doGet(t, c, "http://h/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("got %v %v", resp, err)
	}
	if got, cap := clock.Now(), RetryPolicy().RetryAfterCap; got != cap {
		t.Errorf("slept %v, want the %v cap", got, cap)
	}
	if c.Stats().RetryAfterWaits != 1 {
		t.Errorf("retry-after waits = %d, want 1", c.Stats().RetryAfterWaits)
	}
}

func TestTruncationDetected(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{status: 200, body: "half", declare: 8},
		{status: 200, body: "complete", declare: -1},
	}}
	c := New(RetryPolicy(), WithTransport(st), WithClock(clock))
	resp, err := doGet(t, c, "http://h/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("got %v %v, want recovery from truncation", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "complete" {
		t.Errorf("body = %q", body)
	}
	if c.Stats().Truncations != 1 {
		t.Errorf("truncations = %d, want 1", c.Stats().Truncations)
	}

	// The naive policy swallows the short body silently.
	st2 := &scriptTransport{clock: clock, steps: []scriptStep{{status: 200, body: "half", declare: 8}}}
	n := New(NaivePolicy(), WithTransport(st2), WithClock(clock))
	resp, err = doGet(t, n, "http://h/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("naive got %v %v", resp, err)
	}
	if n.Stats().Truncations != 0 {
		t.Error("naive policy should not detect truncation")
	}
}

func TestPerTryTimeoutAndHedge(t *testing.T) {
	clock := &fakeClock{}
	pol := FullPolicy()
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{status: 200, body: "slow", declare: -1, cost: 10 * time.Second}, // blows the 1s per-try deadline
		{status: 200, body: "fast", declare: -1},
	}}
	c := New(pol, WithTransport(st), WithClock(clock), WithRand(rand.New(rand.NewSource(1))))
	resp, err := doGet(t, c, "http://h/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("got %v %v, want hedged recovery", resp, err)
	}
	stats := c.Stats()
	if stats.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", stats.Hedges)
	}
	if stats.Retries != 0 {
		t.Errorf("retries = %d; a hedge must not charge the retry path", stats.Retries)
	}
}

func TestBudgetExhaustionStopsRetries(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{{err: errors.New("down")}}}
	pol := RetryPolicy()
	pol.BudgetBurst, pol.BudgetEarn = 1, 0 // one retry, ever
	c := New(pol, WithTransport(st), WithClock(clock))
	_, err := doGet(t, c, "http://h/x")
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if got := c.Stats().BudgetDenied; got != 1 {
		t.Errorf("budget denied = %d, want 1", got)
	}
	if st.callCount() != 2 { // first attempt + the single budgeted retry
		t.Errorf("made %d attempts, want 2", st.callCount())
	}
}

func TestBudgetTokenBucket(t *testing.T) {
	b := newBudget(2, 0.5)
	if !b.withdraw() || !b.withdraw() {
		t.Fatal("fresh budget should cover its burst")
	}
	if b.withdraw() {
		t.Fatal("drained budget should refuse")
	}
	b.deposit()
	if b.withdraw() {
		t.Fatal("half a token is not a whole token")
	}
	b.deposit()
	if !b.withdraw() {
		t.Fatal("two deposits at 0.5 should fund one retry")
	}
	for i := 0; i < 10; i++ {
		b.deposit()
	}
	if b.tokens != 2 {
		t.Errorf("tokens = %v, want capped at burst 2", b.tokens)
	}
	var nilB *budget
	nilB.deposit()
	if !nilB.withdraw() {
		t.Error("nil budget must be unlimited")
	}
}

// TestBreakerStateMachine walks one host's breaker through the client:
// three failed requests open it, it fails fast until the cooldown, a failed
// half-open trial re-opens it, and a served trial closes it.
func TestBreakerStateMachine(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{
		{err: errors.New("down")}, {err: errors.New("down")}, {err: errors.New("down")},
		{err: errors.New("still down")},
		{status: 200, body: "back", declare: -1},
	}}
	pol := NaivePolicy()
	pol.BreakerThreshold, pol.BreakerCooldown = 3, 10*time.Second
	c := New(pol, WithTransport(st), WithClock(clock))
	state := func() breaker.State {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, s := range c.breakers.Statuses() {
			if s.Key == "h" {
				return s.State
			}
		}
		return breaker.Closed
	}
	for i := 0; i < 3; i++ {
		if _, err := doGet(t, c, "http://h/x"); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("request %d: err = %v, want the transport failure", i, err)
		}
	}
	if state() != breaker.Open {
		t.Fatalf("state = %v after three failures, want open", state())
	}
	clock.advance(time.Second)
	if _, err := doGet(t, c, "http://h/x"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v before the cooldown, want fast-fail", err)
	}
	clock.advance(10 * time.Second)
	if _, err := doGet(t, c, "http://h/x"); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want the half-open trial to reach the host and fail", err)
	}
	if state() != breaker.Open {
		t.Fatalf("state = %v after a failed trial, want re-opened", state())
	}
	clock.advance(10 * time.Second)
	if resp, err := doGet(t, c, "http://h/x"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("second trial: %v %v, want served", resp, err)
	}
	if state() != breaker.Closed {
		t.Fatalf("state = %v after a served trial, want closed", state())
	}
	if st.callCount() != 5 || c.Stats().FastFails != 1 {
		t.Errorf("%d calls, %d fast-fails; want 5 calls and 1 fast-fail", st.callCount(), c.Stats().FastFails)
	}
}

func TestClientFastFailsOnOpenBreaker(t *testing.T) {
	clock := &fakeClock{}
	st := &scriptTransport{clock: clock, steps: []scriptStep{{err: errors.New("down")}}}
	pol := FullPolicy()
	pol.BreakerThreshold, pol.BreakerCooldown = 2, time.Hour
	c := New(pol, WithTransport(st), WithClock(clock), WithRand(rand.New(rand.NewSource(1))))
	if _, err := doGet(t, c, "http://h/x"); err == nil {
		t.Fatal("dead host should fail")
	}
	before := st.callCount()
	if _, err := doGet(t, c, "http://h/y"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want fast-fail", err)
	}
	if st.callCount() != before {
		t.Error("fast-fail must not touch the network")
	}
	if c.Stats().FastFails != 1 {
		t.Errorf("fast-fails = %d, want 1", c.Stats().FastFails)
	}
}

// TestNaiveBodyOutlivesAttempt: on the real clock an unbuffered body is
// read after the attempt returns, so the per-try deadline must stay live
// until the caller closes the body.
func TestNaiveBodyOutlivesAttempt(t *testing.T) {
	payload := strings.Repeat("x", 4<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer srv.Close()
	c := New(NaivePolicy(), WithClock(NewRealClock()))
	resp, err := doGet(t, c, srv.URL+"/big")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) != len(payload) {
		t.Fatalf("read %d of %d bytes: %v", len(body), len(payload), err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"naive", "retry", "full"} {
		p, err := PolicyByName(name)
		if err != nil || p.Name != name {
			t.Errorf("PolicyByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Error("unknown policy should error")
	}
}

// TestSharedBreakerBudgetConcurrency is the -race exercise: one client,
// and so one breaker set and one budget, serves many goroutines hammering a
// flaky server at once. The assertions are structural (no panic, no race,
// bounded state); correctness of individual outcomes is covered by the
// serial tests.
func TestSharedBreakerBudgetConcurrency(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		n := hits
		mu.Unlock()
		if n%3 == 0 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	pol := RetryPolicy()
	pol.BackoffBase, pol.BackoffCap = time.Microsecond, 10*time.Microsecond
	pol.BudgetBurst, pol.BudgetEarn = 100, 1
	pol.BreakerThreshold, pol.BreakerCooldown = 50, time.Second // stay closed under 1/3 failures
	c := New(pol, WithClock(NewRealClock()), WithRand(rand.New(rand.NewSource(1))))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := doGet(t, c, fmt.Sprintf("%s/p/%d/%d", srv.URL, id, j))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	if c.budget.tokens > 100 {
		t.Errorf("budget overfilled: %v tokens", c.budget.tokens)
	}
	if got := c.breakers.Statuses(); len(got) != 1 {
		t.Errorf("breaker tracked hosts %+v, want exactly the test server", got)
	}
	if st := c.Stats(); st.Requests != 160 || st.Successes+st.GiveUps+st.BudgetDenied != 160 {
		t.Errorf("stats = %+v, want 160 requests each ending once", st)
	}
}
