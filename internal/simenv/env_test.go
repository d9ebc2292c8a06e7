package simenv

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminismAcrossSeeds(t *testing.T) {
	// Two environments with the same seed make identical scheduling choices;
	// a different seed (almost surely) diverges somewhere in a long run.
	a := New(42)
	b := New(42)
	c := New(43)
	sameAB, sameAC := true, true
	for i := 0; i < 200; i++ {
		xa := a.Sched().Interleave("p", 10)
		xb := b.Sched().Interleave("p", 10)
		xc := c.Sched().Interleave("p", 10)
		if xa != xb {
			sameAB = false
		}
		if xa != xc {
			sameAC = false
		}
	}
	if !sameAB {
		t.Error("same seed must give identical interleavings")
	}
	if sameAC {
		t.Error("different seeds should diverge over 200 draws")
	}
}

func TestRerollChangesInterleavings(t *testing.T) {
	a := New(7)
	b := New(7)
	b.Reroll()
	diverged := false
	for i := 0; i < 100; i++ {
		if a.Sched().Interleave("p", 8) != b.Sched().Interleave("p", 8) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("Reroll should change the interleaving sequence")
	}
}

func TestHostname(t *testing.T) {
	e := New(1)
	if e.Hostname() != "darkstar" {
		t.Errorf("hostname = %q", e.Hostname())
	}
	e.SetHostname("beta")
	if e.Hostname() != "beta" {
		t.Errorf("hostname after set = %q", e.Hostname())
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	e := New(1)
	t0 := e.Now()
	e.Advance(90 * time.Second)
	if got := e.Now().Sub(t0); got != 90*time.Second {
		t.Errorf("clock advanced %v, want 90s", got)
	}
}

func TestReclaimOwner(t *testing.T) {
	e := New(1)
	if _, err := e.FDs().Open("httpd"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Procs().Spawn("httpd"); err != nil {
		t.Fatal(err)
	}
	if err := e.Net().BindPort(80, "httpd"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FDs().Open("other"); err != nil {
		t.Fatal(err)
	}

	e.ReclaimOwner("httpd")

	if n := e.FDs().OwnedBy("httpd"); n != 0 {
		t.Errorf("httpd still owns %d fds", n)
	}
	if n := e.Procs().OwnedBy("httpd"); n != 0 {
		t.Errorf("httpd still owns %d procs", n)
	}
	if err := e.Net().BindPort(80, "probe"); err != nil {
		t.Errorf("port 80 still bound: %v", err)
	}
	if n := e.FDs().OwnedBy("other"); n != 1 {
		t.Errorf("other's fd was reclaimed too")
	}
}

func TestFDTableExhaustion(t *testing.T) {
	e := New(1, WithFDLimit(3))
	for i := 0; i < 3; i++ {
		if _, err := e.FDs().Open("app"); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := e.FDs().Open("app"); !errors.Is(err, ErrFDExhausted) {
		t.Errorf("want ErrFDExhausted, got %v", err)
	}
	// Raising the limit (the §6.2 mitigation) unblocks.
	e.FDs().SetLimit(4)
	if _, err := e.FDs().Open("app"); err != nil {
		t.Errorf("open after SetLimit: %v", err)
	}
}

func TestFDCloseAndDoubleClose(t *testing.T) {
	e := New(1)
	fd, err := e.FDs().Open("app")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.fds.open[fd]; got != "app" {
		t.Errorf("owner = %q", got)
	}
	if err := e.FDs().Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := e.FDs().Close(fd); err == nil {
		t.Error("double close should fail")
	}
}

func TestProcLifecycle(t *testing.T) {
	e := New(1, WithProcLimit(2))
	pid, err := e.Procs().Spawn("app")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := e.Procs().Lookup(pid)
	if !ok || p.State != ProcRunning {
		t.Fatalf("lookup: %+v ok=%v", p, ok)
	}
	if err := e.Procs().Exit(pid); err != nil {
		t.Fatal(err)
	}
	p, _ = e.Procs().Lookup(pid)
	if p.State != ProcZombie {
		t.Errorf("state after exit = %v", p.State)
	}
	// Zombie still occupies a slot.
	if _, err := e.Procs().Spawn("app"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Procs().Spawn("app"); !errors.Is(err, ErrProcTableFull) {
		t.Errorf("want ErrProcTableFull, got %v", err)
	}
	if err := e.Procs().Reap(pid); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Procs().Spawn("app"); err != nil {
		t.Errorf("spawn after reap: %v", err)
	}
}

func TestProcReapNonZombie(t *testing.T) {
	e := New(1)
	pid, _ := e.Procs().Spawn("app")
	if err := e.Procs().Reap(pid); err == nil {
		t.Error("reap of running process should fail")
	}
	if err := e.Procs().Hang(pid); err != nil {
		t.Fatal(err)
	}
	if p, ok := e.Procs().Lookup(pid); !ok || p.State != ProcHung {
		t.Errorf("after Hang: %+v, %t, want a hung process", p, ok)
	}
}

func TestProcErrorsOnUnknownPID(t *testing.T) {
	e := New(1)
	for _, f := range []func(PID) error{e.Procs().Hang, e.Procs().Exit, e.Procs().Reap, e.Procs().Kill} {
		if err := f(PID(9999)); err == nil {
			t.Error("operation on unknown pid should fail")
		}
	}
}

func TestDiskCapacityAndFileLimit(t *testing.T) {
	e := New(1, WithDiskBytes(100), WithMaxFileSize(60))
	if err := e.Disk().Append("/a", "app", 50); err != nil {
		t.Fatal(err)
	}
	if err := e.Disk().Append("/a", "app", 20); !errors.Is(err, ErrFileTooLarge) {
		t.Errorf("want ErrFileTooLarge, got %v", err)
	}
	if err := e.Disk().Append("/b", "app", 60); !errors.Is(err, ErrDiskFull) {
		t.Errorf("want ErrDiskFull, got %v", err)
	}
	if used := diskUsed(e.Disk()); used != 50 {
		t.Errorf("used = %d, want 50", used)
	}
	if err := e.Disk().Truncate("/a"); err != nil {
		t.Fatal(err)
	}
	if used := diskUsed(e.Disk()); used != 0 {
		t.Errorf("used after truncate = %d", used)
	}
}

func TestDiskRemoveAndOwner(t *testing.T) {
	e := New(1)
	if err := e.Disk().Append("/tmp/x", "app", 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Disk().Append("/tmp/y", "other", 20); err != nil {
		t.Fatal(err)
	}
	if freed := e.Disk().RemoveOwner("app"); freed != 10 {
		t.Errorf("freed = %d, want 10", freed)
	}
	if e.Disk().Exists("/tmp/x") {
		t.Error("/tmp/x should be gone")
	}
	if !e.Disk().Exists("/tmp/y") {
		t.Error("/tmp/y should remain")
	}
	if err := e.Disk().Remove("/tmp/x"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("want ErrNoSuchFile, got %v", err)
	}
}

func TestDiskFillFrom(t *testing.T) {
	e := New(1, WithDiskBytes(1000), WithMaxFileSize(100))
	if err := e.Disk().FillFrom("tenant", 50); err != nil {
		t.Fatal(err)
	}
	if free := e.Disk().Capacity() - diskUsed(e.Disk()); free != 50 {
		t.Errorf("free = %d, want 50", free)
	}
	// Filling when already below the target is a no-op.
	if err := e.Disk().FillFrom("tenant", 500); err != nil {
		t.Fatal(err)
	}
	if free := e.Disk().Capacity() - diskUsed(e.Disk()); free != 50 {
		t.Errorf("free after second fill = %d, want 50", free)
	}
}

func TestDiskIllegalOwner(t *testing.T) {
	e := New(1)
	if err := e.Disk().Append("/home/f", "user", 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Disk().SetIllegalOwner("/home/f", true); err != nil {
		t.Fatal(err)
	}
	bad, err := e.Disk().IllegalOwner("/home/f")
	if err != nil || !bad {
		t.Errorf("IllegalOwner = %v, %v", bad, err)
	}
	if _, err := e.Disk().IllegalOwner("/missing"); err == nil {
		t.Error("IllegalOwner on missing file should fail")
	}
}

func TestDiskSetCapacity(t *testing.T) {
	e := New(1, WithDiskBytes(100))
	if err := e.Disk().Append("/a", "app", 80); err != nil {
		t.Fatal(err)
	}
	if err := e.Disk().SetCapacity(50); err == nil {
		t.Error("shrinking below usage should fail")
	}
	if err := e.Disk().SetCapacity(200); err != nil {
		t.Fatal(err)
	}
	if err := e.Disk().Append("/a2", "app", 100); err != nil {
		t.Errorf("append after grow: %v", err)
	}
}

func TestDNSOutageHealsWithTime(t *testing.T) {
	e := New(1)
	e.DNS().AddHost("db.example.com", "10.0.0.5")
	e.DNS().Fail(2 * time.Minute)
	if _, _, err := e.DNS().Lookup("db.example.com"); !errors.Is(err, ErrDNSFailure) {
		t.Fatalf("want ErrDNSFailure, got %v", err)
	}
	e.Advance(time.Minute)
	if _, _, err := e.DNS().Lookup("db.example.com"); !errors.Is(err, ErrDNSFailure) {
		t.Fatalf("outage should persist at 1m, got %v", err)
	}
	e.Advance(90 * time.Second)
	addr, _, err := e.DNS().Lookup("db.example.com")
	if err != nil || addr != "10.0.0.5" {
		t.Errorf("after heal: %q, %v", addr, err)
	}
}

func TestDNSSlowMode(t *testing.T) {
	e := New(1)
	e.DNS().AddHost("h", "1.2.3.4")
	e.DNS().Slow(time.Minute)
	_, latency, err := e.DNS().Lookup("h")
	if err != nil {
		t.Fatal(err)
	}
	if latency < time.Second {
		t.Errorf("slow lookup latency = %v, want >= 1s", latency)
	}
	e.Advance(time.Minute)
	_, latency, _ = e.DNS().Lookup("h")
	if latency > time.Second {
		t.Errorf("healed lookup latency = %v", latency)
	}
}

func TestReverseDNSMissingIsNotOutage(t *testing.T) {
	e := New(1)
	e.DNS().AddHostNoReverse("client.example.com", "10.9.9.9")
	if _, err := e.DNS().Reverse("10.9.9.9"); !errors.Is(err, ErrNoReverseDNS) {
		t.Errorf("want ErrNoReverseDNS, got %v", err)
	}
	// Time does not fix missing PTR records: it is a configuration condition.
	e.Advance(24 * time.Hour)
	if _, err := e.DNS().Reverse("10.9.9.9"); !errors.Is(err, ErrNoReverseDNS) {
		t.Errorf("PTR should still be missing after a day, got %v", err)
	}
}

func TestNetworkPorts(t *testing.T) {
	e := New(1)
	if err := e.Net().BindPort(80, "httpd"); err != nil {
		t.Fatal(err)
	}
	if err := e.Net().BindPort(80, "other"); !errors.Is(err, ErrPortInUse) {
		t.Errorf("want ErrPortInUse, got %v", err)
	}
	if err := e.Net().ReleasePort(80); err != nil {
		t.Fatal(err)
	}
	if err := e.Net().ReleasePort(80); err == nil {
		t.Error("release of unbound port should fail")
	}
}

func TestNetworkInterfaceRemoval(t *testing.T) {
	e := New(1)
	e.Net().RemoveInterface()
	if err := e.Net().BindPort(80, "httpd"); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("want ErrNetworkDown, got %v", err)
	}
	if err := e.Net().AcquireResource(); !errors.Is(err, ErrNetworkDown) {
		t.Errorf("want ErrNetworkDown, got %v", err)
	}
	// Time alone does not reinsert a PCMCIA card.
	e.Advance(time.Hour)
	if e.Net().InterfacePresent() {
		t.Error("interface should remain absent")
	}
}

func TestNetworkResourceExhaustion(t *testing.T) {
	e := New(1)
	e.Net().SetResourceCap(2)
	if err := e.Net().AcquireResource(); err != nil {
		t.Fatal(err)
	}
	if err := e.Net().AcquireResource(); err != nil {
		t.Fatal(err)
	}
	if err := e.Net().AcquireResource(); !errors.Is(err, ErrNetResourceExhausted) {
		t.Errorf("want ErrNetResourceExhausted, got %v", err)
	}
	e.Net().ReleaseResource()
	if err := e.Net().AcquireResource(); err != nil {
		t.Errorf("acquire after release: %v", err)
	}
}

func TestNetworkSlowHeals(t *testing.T) {
	e := New(1)
	e.Net().SlowFor(time.Minute)
	if !e.Net().Slow() {
		t.Fatal("network should be slow")
	}
	e.Advance(2 * time.Minute)
	if e.Net().Slow() {
		t.Error("slowness should heal with time")
	}
}

func TestEntropyStarvationAndRefill(t *testing.T) {
	e := New(1)
	if err := e.Entropy().Draw(4096); err != nil {
		t.Fatal(err)
	}
	if err := e.Entropy().Draw(1); !errors.Is(err, ErrEntropyStarved) {
		t.Errorf("want ErrEntropyStarved, got %v", err)
	}
	e.Advance(2 * time.Second) // refills at 64 bits/s
	if err := e.Entropy().Draw(120); err != nil {
		t.Errorf("draw after refill: %v", err)
	}
	if err := e.Entropy().Draw(-1); err == nil {
		t.Error("negative draw should fail")
	}
}

func TestEntropyCapped(t *testing.T) {
	e := New(1)
	e.Advance(time.Hour)
	if err := e.Entropy().Draw(4096); err != nil {
		t.Fatalf("full pool: %v", err)
	}
	if err := e.Entropy().Draw(1); !errors.Is(err, ErrEntropyStarved) {
		t.Errorf("pool overfilled past 4096 bits: %v", err)
	}
}

func TestSchedulerForce(t *testing.T) {
	e := New(1)
	e.Sched().Force("race-point", 0)
	for i := 0; i < 10; i++ {
		if got := e.Sched().Interleave("race-point", 5); got != 0 {
			t.Fatalf("forced interleave = %d", got)
		}
	}
	// Forced choice beyond range clamps.
	e.Sched().Force("clamp", 10)
	if got := e.Sched().Interleave("clamp", 3); got != 2 {
		t.Errorf("clamped choice = %d, want 2", got)
	}
	e.Sched().UnforceAll()
	free := false
	for i := 0; i < 100 && !free; i++ {
		free = e.Sched().Interleave("race-point", 5) != 0
	}
	if !free {
		t.Error("UnforceAll should clear all pins")
	}
}

func TestRaceFiresWindowOne(t *testing.T) {
	e := New(1)
	if !e.Sched().RaceFires("always", 1) {
		t.Error("window 1 must always fire")
	}
	if !e.Sched().RaceFires("always0", 0) {
		t.Error("window 0 must always fire")
	}
}

// Property: disk accounting never goes negative and used never exceeds
// capacity under arbitrary append/remove sequences.
func TestDiskAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		e := New(1, WithDiskBytes(1<<20), WithMaxFileSize(1<<16))
		d := e.Disk()
		for i, op := range ops {
			name := []string{"/a", "/b", "/c"}[i%3]
			if op%2 == 0 {
				// Ignore errors: full disk / oversized appends must leave
				// accounting consistent.
				_ = d.Append(name, "p", int64(op))
			} else {
				_ = d.Remove(name)
			}
			if diskUsed(d) < 0 || diskUsed(d) > d.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the fd table never exceeds its limit and OwnedBy sums are
// consistent with InUse.
func TestFDTableInvariantProperty(t *testing.T) {
	f := func(seq []bool) bool {
		e := New(1, WithFDLimit(8))
		tbl := e.FDs()
		var open []FD
		for _, doOpen := range seq {
			if doOpen {
				fd, err := tbl.Open("p")
				if err == nil {
					open = append(open, fd)
				}
			} else if len(open) > 0 {
				_ = tbl.Close(open[len(open)-1])
				open = open[:len(open)-1]
			}
			if tbl.InUse() > tbl.Limit() || tbl.InUse() != len(open) {
				return false
			}
		}
		return tbl.OwnedBy("p") == len(open)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiskAccessors(t *testing.T) {
	e := New(1, WithDiskBytes(1000), WithMaxFileSize(100))
	if err := e.Disk().Append("/x", "p", 40); err != nil {
		t.Fatal(err)
	}
	sz, err := e.Disk().Size("/x")
	if err != nil || sz != 40 {
		t.Errorf("Size = %d, %v", sz, err)
	}
	if _, err := e.Disk().Size("/missing"); err == nil {
		t.Error("Size of missing file should fail")
	}
	if err := e.Disk().Append("/y", "p", 10); err != nil {
		t.Fatal(err)
	}
	if !e.Disk().Exists("/x") || !e.Disk().Exists("/y") {
		t.Error("appended files missing")
	}
	e.Disk().SetMaxFileSize(200)
	if e.Disk().MaxFileSize() != 200 {
		t.Error("SetMaxFileSize not applied")
	}
	if err := e.Disk().Append("/x", "p", 150); err != nil {
		t.Errorf("append after raising the limit: %v", err)
	}
	if err := e.Disk().Append("/x", "p", -1); err == nil {
		t.Error("negative append should fail")
	}
}

func TestDNSModeStrings(t *testing.T) {
	e := New(1)
	if e.DNS().mode != DNSHealthy {
		t.Error("fresh dns should be healthy")
	}
	for _, m := range []DNSMode{DNSHealthy, DNSSlow, DNSFailing} {
		if m.String() == "" {
			t.Errorf("empty mode string for %d", int(m))
		}
	}
	if DNSMode(9).String() != "DNSMode(9)" {
		t.Error("unknown mode string")
	}
}

func TestEntropyDrainAndRate(t *testing.T) {
	e := New(1)
	e.Entropy().Drain()
	if err := e.Entropy().Draw(1); !errors.Is(err, ErrEntropyStarved) {
		t.Errorf("drain did not empty the pool: %v", err)
	}
	e.Advance(time.Second) // refills at 64 bits/s
	if err := e.Entropy().Draw(64); err != nil {
		t.Errorf("draw after a second's refill: %v", err)
	}
	if err := e.Entropy().Draw(1); !errors.Is(err, ErrEntropyStarved) {
		t.Errorf("a second refilled more than 64 bits: %v", err)
	}
}

func TestNetResourceInUse(t *testing.T) {
	e := New(1)
	if err := e.Net().AcquireResource(); err != nil {
		t.Fatal(err)
	}
	if e.Net().ResourceInUse() != 1 {
		t.Error("ResourceInUse wrong")
	}
	e.Net().ReleaseResource()
	e.Net().ReleaseResource() // extra release is a no-op
	if e.Net().ResourceInUse() != 0 {
		t.Error("ResourceInUse after release wrong")
	}
}

func TestProcStateStringsAndAccessors(t *testing.T) {
	e := New(1, WithProcLimit(5))
	if e.Procs().Limit() != 5 {
		t.Error("Limit wrong")
	}
	pid, err := e.Procs().Spawn("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.procs.procs) != 1 {
		t.Error("InUse wrong")
	}
	for _, s := range []ProcState{ProcRunning, ProcHung, ProcZombie} {
		if s.String() == "" {
			t.Errorf("empty state string for %d", int(s))
		}
	}
	if ProcState(9).String() != "ProcState(9)" {
		t.Error("unknown state string")
	}
	_ = e.Procs().Kill(pid)
}
