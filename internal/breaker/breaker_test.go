package breaker

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestSetStateMachine(t *testing.T) {
	s := NewSet(3, 10*time.Second)
	state := func(key string) State {
		for _, st := range s.Statuses() {
			if st.Key == key {
				return st.State
			}
		}
		return Closed
	}
	if !s.Allow("h", 0) || state("h") != Closed {
		t.Fatal("fresh breaker should admit")
	}
	s.Failure("h", 0)
	s.Failure("h", 0)
	if !s.Failure("h", 0) {
		t.Fatal("third failure should open the breaker")
	}
	if s.Failure("h", 0) {
		t.Fatal("a failure on an open breaker must not report a new opening")
	}
	if s.Allow("h", 9*time.Second) {
		t.Fatal("open breaker should fail fast before cooldown")
	}
	if !s.Allow("h", 10*time.Second) || state("h") != HalfOpen {
		t.Fatalf("cooldown elapsed: state %v, want the half-open trial admitted", state("h"))
	}
	if !s.Failure("h", 12*time.Second) {
		t.Fatal("failed trial should re-open")
	}
	if s.Allow("h", 21*time.Second) || !s.Allow("h", 22*time.Second) {
		t.Fatal("the cooldown should restart from the re-opening")
	}
	s.Success("h")
	if state("h") != Closed {
		t.Fatalf("state after served trial = %v, want closed", state("h"))
	}
	if !s.ForceOpen("m", time.Minute) || s.ForceOpen("m", time.Minute) {
		t.Fatal("ForceOpen should report only the first opening")
	}
	want := "[{h closed 0} {m open 3}]"
	if got := fmt.Sprint(s.Statuses()); got != want {
		t.Errorf("statuses = %s, want %s", got, want)
	}
	if got := State(42).String(); got != "BreakerState(42)" {
		t.Errorf("unknown state renders %q", got)
	}
}

func TestBackoff(t *testing.T) {
	var got []time.Duration
	for attempt := 0; attempt <= 7; attempt++ {
		got = append(got, Backoff(time.Second, 30*time.Second, attempt))
	}
	want := "[1s 1s 2s 4s 8s 16s 30s 30s]"
	if fmt.Sprint(got) != want {
		t.Errorf("backoff = %v, want %s", got, want)
	}
	if d := Backoff(1<<62, math.MaxInt64, 3); d != math.MaxInt64 {
		t.Errorf("overflowing doubling = %v, want the cap", d)
	}
	if d := Backoff(time.Minute, time.Second, 1); d != time.Second {
		t.Errorf("base above the cap = %v, want the cap", d)
	}
}
