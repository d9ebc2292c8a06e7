package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestParseArrivals(t *testing.T) {
	p, err := ParseArrivals("poisson:1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p != (Poisson{MeanGap: time.Millisecond}) {
		t.Errorf("poisson:1ms = %+v, want a 1ms mean gap", p)
	}
	f, err := ParseArrivals("fixed:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if f != (FixedRate{Interval: 2 * time.Millisecond}) {
		t.Errorf("fixed:2ms = %+v, want a 2ms interval", f)
	}
	if gap := f.Next(nil); gap != 2*time.Millisecond {
		t.Errorf("fixed gap = %v, want 2ms", gap)
	}
	for _, bad := range []string{"", "poisson", "poisson:", "poisson:-1ms", "poisson:0s", "uniform:1ms", "fixed:abc"} {
		if _, err := ParseArrivals(bad); err == nil {
			t.Errorf("ParseArrivals(%q) succeeded, want error", bad)
		}
	}
}

func TestPoissonGapsSeededAndPositiveMean(t *testing.T) {
	p := Poisson{MeanGap: time.Millisecond}
	sum := time.Duration(0)
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	for i := 0; i < n; i++ {
		g := p.Next(rng)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / n
	// Exponential gaps with 1ms mean: the empirical mean of 20k draws sits
	// well within 10% of the parameter.
	if mean < 900*time.Microsecond || mean > 1100*time.Microsecond {
		t.Errorf("empirical mean gap %v too far from 1ms", mean)
	}
	// Same seed, same stream.
	a := Poisson{MeanGap: time.Millisecond}
	r1, r2 := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if g1, g2 := a.Next(r1), a.Next(r2); g1 != g2 {
			t.Fatalf("draw %d diverged: %v vs %v", i, g1, g2)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 1234, Users: 50, Requests: 500}
	a, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between identical schedules: %+v vs %+v", i, a[i], b[i])
		}
	}
	other, err := Schedule(GenConfig{Seed: 1235, Users: 50, Requests: 500})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].At == other[i].At {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical arrival times")
	}
}

func TestScheduleShape(t *testing.T) {
	const users, reqs = 1000, 3000
	arrivals, err := Schedule(GenConfig{Seed: 9, Users: users, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != reqs {
		t.Fatalf("got %d arrivals, want %d", len(arrivals), reqs)
	}
	seen := make(map[int]bool, users)
	var prev time.Duration = -1
	for i, a := range arrivals {
		if a.Seq != i {
			t.Fatalf("arrival %d has seq %d", i, a.Seq)
		}
		if a.At < prev {
			t.Fatalf("arrival %d not monotone: %v after %v", i, a.At, prev)
		}
		prev = a.At
		if a.U < 0 || a.U >= 1 {
			t.Fatalf("arrival %d draw %v outside [0,1)", i, a.U)
		}
		if a.Service < 0 {
			t.Fatalf("arrival %d negative service %v", i, a.Service)
		}
		seen[a.User] = true
	}
	// Round-robin assignment with Requests >= Users exercises every user.
	if len(seen) != users {
		t.Errorf("only %d/%d users received traffic", len(seen), users)
	}
}

func TestScheduleValidation(t *testing.T) {
	if _, err := Schedule(GenConfig{Seed: 1, Users: 0, Requests: 10}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := Schedule(GenConfig{Seed: 1, Users: 10, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 0, User: 3, At: 1500 * time.Microsecond, Category: "static", Latency: 300 * time.Microsecond, Outcome: OutcomeOK},
		{Seq: 1, User: 4, At: 2 * time.Millisecond, Category: "cgi", Latency: 80 * time.Millisecond, Outcome: OutcomeSlow},
		{Seq: 2, User: 5, At: 3 * time.Millisecond, Category: "proxy", Outcome: OutcomeRefused, Component: "cache", Err: "component cache is down"},
		{Seq: 3, User: 6, At: 4 * time.Millisecond, Category: "select", Outcome: OutcomeError, Err: "disk full"},
		{Seq: 4, User: 7, At: 5 * time.Millisecond, Category: "insert", Outcome: OutcomeLost, Err: "process down"},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d != %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Byte determinism: encoding the same slice twice is identical.
	var buf2 bytes.Buffer
	if err := WriteRecords(&buf2, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("WriteRecords not byte-deterministic")
	}
}

func TestReadRecordsRejectsBadLogs(t *testing.T) {
	for name, log := range map[string]string{
		"unknown outcome": `{"seq":0,"user":0,"at_ns":0,"category":"x","latency_ns":0,"outcome":"maybe"}`,
		"negative seq":    `{"seq":-1,"user":0,"at_ns":0,"category":"x","latency_ns":0,"outcome":"ok"}`,
		"refused no comp": `{"seq":0,"user":0,"at_ns":0,"category":"x","latency_ns":0,"outcome":"refused"}`,
		"garbage":         `not json`,
	} {
		if _, err := ReadRecords(bytes.NewReader([]byte(log + "\n"))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSLO(t *testing.T) {
	slo := DefaultSLO()
	if slo.Outcome(10*time.Millisecond) != OutcomeOK {
		t.Error("10ms should be ok under the 50ms default")
	}
	if slo.Outcome(60*time.Millisecond) != OutcomeSlow {
		t.Error("60ms should be slow under the 50ms default")
	}
	// Burn: 5 bad of 1000 at 99.9% = 5 / (1000*0.001) = 5 budgets.
	if got := slo.Burn(5, 1000); math.Abs(got-5) > 1e-9 {
		t.Errorf("Burn(5, 1000) = %v, want 5", got)
	}
	if got := slo.Burn(0, 0); got != 0 {
		t.Errorf("Burn on empty stream = %v, want 0", got)
	}
	perfect := SLO{Objective: 1, Latency: time.Second}
	if got := perfect.Burn(3, 100); got != 3 {
		t.Errorf("zero-budget burn = %v, want bad count 3", got)
	}
}
