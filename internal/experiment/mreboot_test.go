package experiment

import (
	"bytes"
	"strings"
	"testing"

	"faultstudy/internal/taxonomy"
)

// mrebootDump renders everything a MREBOOT run produces: the report and the
// telemetry trace, timeline, and metric dumps.
func mrebootDump(t *testing.T, workers int) string {
	t.Helper()
	tel := NewTelemetry()
	rep, err := RunMReboot(MRebootConfig{Seed: 42, Telemetry: tel, Workers: workers})
	if err != nil {
		t.Fatalf("RunMReboot(workers=%d): %v", workers, err)
	}
	var b bytes.Buffer
	b.WriteString(rep.String())
	if err := tel.WriteTrace(&b); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := tel.WriteTimeline(&b); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestMRebootWorkerInvariance is the determinism contract: every report,
// trace, timeline, and metrics dump of the MREBOOT sweep is byte-identical
// at 1, 2, and 8 workers.
func TestMRebootWorkerInvariance(t *testing.T) {
	serial := mrebootDump(t, 1)
	for _, workers := range []int{2, 8} {
		if got := mrebootDump(t, workers); got != serial {
			t.Fatalf("MREBOOT output at %d workers differs from serial run", workers)
		}
	}
}

// TestMRebootGate runs the sweep once and asserts the CI gate plus the
// mechanics behind it: microreboot strictly beats process restart on
// EI requests lost, repairs faster wherever both recovered, reboots
// components only under the microreboot policy, and is the only policy
// that serves anything during an outage.
func TestMRebootGate(t *testing.T) {
	rep, err := RunMReboot(MRebootConfig{Seed: 42, Workers: 0})
	if err != nil {
		t.Fatalf("RunMReboot: %v", err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(rep.Arms) != len(Registry().Mechanisms())*len(MRebootPolicies()) {
		t.Fatalf("arms = %d, want mechanisms x policies", len(rep.Arms))
	}

	ei := taxonomy.ClassEnvIndependent
	microLost, _ := rep.LostBy(ei, "microreboot")
	restartLost, _ := rep.LostBy(ei, "restart")
	if microLost >= restartLost {
		t.Fatalf("EI requests lost: microreboot %d, restart %d — want strict win", microLost, restartLost)
	}

	var microOutageServed, procOutageServed, microReboots, procReboots int
	for _, a := range rep.Arms {
		if a.Policy == "microreboot" {
			microOutageServed += a.OutageServed
			microReboots += a.Reboots
		} else {
			procOutageServed += a.OutageServed
			procReboots += a.Reboots
		}
		if a.Requests < mrebootBgOps {
			t.Fatalf("%s x %s: %d requests, want >= %d scheduled arrivals",
				a.Mechanism, a.Policy, a.Requests, mrebootBgOps)
		}
		if a.Served+a.Lost > a.Requests {
			t.Fatalf("%s x %s: served %d + lost %d > requests %d",
				a.Mechanism, a.Policy, a.Served, a.Lost, a.Requests)
		}
	}
	if microOutageServed == 0 {
		t.Fatal("microreboot arms served nothing during outages — sibling serving is broken")
	}
	if procOutageServed != 0 {
		t.Fatalf("process-level arms served %d requests during outages, want 0", procOutageServed)
	}
	if microReboots == 0 {
		t.Fatal("microreboot arms performed no component reboots")
	}
	if procReboots != 0 {
		t.Fatalf("process-level arms performed %d component reboots, want 0", procReboots)
	}

	for _, class := range taxonomy.Classes() {
		micro, restart := rep.MTTRBy(class, "microreboot"), rep.MTTRBy(class, "restart")
		if micro > 0 && restart > 0 && micro >= restart {
			t.Fatalf("%s MTTR: microreboot %s, restart %s — want strictly faster", class.Short(), micro, restart)
		}
	}

	s := rep.String()
	for _, want := range []string{"MREBOOT sweep", "microreboot", "restart", "rollback", "mttr", "Headline"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

// TestMRebootTelemetry asserts the sweep emits the documented metric family
// and episode traces.
func TestMRebootTelemetry(t *testing.T) {
	tel := NewTelemetry()
	if _, err := RunMReboot(MRebootConfig{Seed: 42, Telemetry: tel, Workers: 0}); err != nil {
		t.Fatalf("RunMReboot: %v", err)
	}
	if len(tel.Episodes()) == 0 {
		t.Fatal("no episodes recorded")
	}
	var prom bytes.Buffer
	if err := tel.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, metric := range []string{
		MetricMRebootEpisodes, MetricMRebootRequestsLost,
		MetricMRebootMTTRSeconds, MetricMRebootComponentReboots,
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Fatalf("metrics dump missing %s", metric)
		}
	}
	// Component attribution must reach the trace: some recorded action span
	// names the rebooted component.
	var attributed bool
	for _, ep := range tel.Episodes() {
		for _, sp := range ep.Spans {
			if sp.Kind == "action" && sp.Component != "" {
				attributed = true
			}
		}
	}
	if !attributed {
		t.Fatal("no action span carries a component attribution")
	}
}

// TestSpliceArrivals pins the schedule shape: every scenario op appears once,
// in order, at deterministic positions, with background arrivals filling the
// rest.
func TestSpliceArrivals(t *testing.T) {
	drv, sc, err := buildComponentized("httpd/null-deref", 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	arrivals := spliceArrivals(drv, sc.Ops, mrebootBgOps)
	if len(arrivals) != mrebootBgOps+len(sc.Ops) {
		t.Fatalf("arrivals = %d, want %d", len(arrivals), mrebootBgOps+len(sc.Ops))
	}
	var triggers []string
	for _, a := range arrivals {
		if a.trigger {
			triggers = append(triggers, a.name)
		}
	}
	if len(triggers) != len(sc.Ops) {
		t.Fatalf("triggers = %d, want %d", len(triggers), len(sc.Ops))
	}
	for i, op := range sc.Ops {
		if triggers[i] != op.Name {
			t.Fatalf("trigger %d = %q, want %q (order must be preserved)", i, triggers[i], op.Name)
		}
	}
}
