package experiment

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"faultstudy/internal/recovery"
	"faultstudy/internal/supervise"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256")

// goldenPath pins the sha256 of each sweep's complete output. A change that
// claims byte-identical outputs must leave this file untouched; a change
// that means to shift outputs regenerates it with `go test -run
// TestGoldenDigests -update ./internal/experiment`.
const goldenPath = "testdata/golden.sha256"

// goldenCases are small but complete runs of the sweeps whose outputs the
// lab publishes: every phase runs, at a fraction of the default scale.
var goldenCases = []struct {
	name string
	run  func(t *testing.T, workers int) []byte
}{
	{"corpus", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunCorpus(CorpusConfig{
			Seed:       42,
			Spec:       "faults=400;episodes=50",
			Supervise:  supervise.Config{GrowResources: true},
			SiteFaults: 200,
			CrawlPages: 20,
			Telemetry:  tel,
			Workers:    workers,
		})
		if err != nil {
			t.Fatalf("RunCorpus: %v", err)
		}
		return fingerprint(t, tel, rep.String())
	}},
	{"mreboot", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunMReboot(MRebootConfig{Seed: 42, Telemetry: tel, Workers: workers})
		if err != nil {
			t.Fatalf("RunMReboot: %v", err)
		}
		return fingerprint(t, tel, rep.String())
	}},
	{"serve", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunServe(ServeConfig{Seed: 42, Users: 100, Requests: 300, Telemetry: tel, Workers: workers})
		if err != nil {
			t.Fatalf("RunServe: %v", err)
		}
		var b bytes.Buffer
		b.WriteString(rep.String())
		b.WriteString("\n--reqlog--\n")
		if err := rep.WriteRequestLog(&b); err != nil {
			t.Fatalf("WriteRequestLog: %v", err)
		}
		return fingerprint(t, tel, b.String())
	}},
	{"durable", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunDurable(DurableConfig{Seed: 7, Telemetry: tel, Workers: workers})
		if err != nil {
			t.Fatalf("RunDurable: %v", err)
		}
		return fingerprint(t, tel, rep.String())
	}},
	{"resil", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunResil(ResilConfig{Seed: 42, MaxPages: 60, Telemetry: tel, Workers: workers})
		if err != nil {
			t.Fatalf("RunResil: %v", err)
		}
		return fingerprint(t, tel, rep.String())
	}},
	{"scope", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		rep, err := RunScope(ScopeConfig{Seed: 42, Telemetry: tel, Workers: workers})
		if err != nil {
			t.Fatalf("RunScope: %v", err)
		}
		return fingerprint(t, tel, rep.String())
	}},
	{"soak", func(t *testing.T, workers int) []byte {
		return soakFingerprint(t, 42, workers)
	}},
	{"matrix", func(t *testing.T, workers int) []byte {
		tel := NewTelemetry()
		m, err := RunMatrixWorkers(recovery.Policy{}, 42, workers)
		if err != nil {
			t.Fatalf("RunMatrixWorkers: %v", err)
		}
		if err := m.AddSupervisedWorkers(42, supervise.Config{GrowResources: true}, tel, workers); err != nil {
			t.Fatalf("AddSupervisedWorkers: %v", err)
		}
		var b strings.Builder
		b.WriteString(m.String())
		b.WriteString(ComputeLee93(m).String())
		files, err := ExportAll(m)
		if err != nil {
			t.Fatalf("ExportAll: %v", err)
		}
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "\n--%s--\n%s", name, files[name])
		}
		return fingerprint(t, tel, b.String())
	}},
	{"lint", func(t *testing.T, workers int) []byte {
		root, err := ModuleRoot()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunLintWorkers(root, workers)
		if err != nil {
			t.Fatalf("RunLintWorkers: %v", err)
		}
		return []byte(rep.String())
	}},
	{"ablations", func(t *testing.T, _ int) []byte {
		// The ablations are serial; the row still runs at every worker count
		// so the digest table stays rectangular.
		var b strings.Builder
		retry, err := RunRetryAblation(5, 42)
		if err != nil {
			t.Fatalf("RunRetryAblation: %v", err)
		}
		b.WriteString(retry.String())
		rejuv, err := RunRejuvenationAblation([]int{0, 16, 32, 64, 128}, 42)
		if err != nil {
			t.Fatalf("RunRejuvenationAblation: %v", err)
		}
		b.WriteString(rejuv.String())
		reclaim, err := RunReclaimAblation(42)
		if err != nil {
			t.Fatalf("RunReclaimAblation: %v", err)
		}
		b.WriteString(reclaim.String())
		mit, err := RunMitigationAblation(42)
		if err != nil {
			t.Fatalf("RunMitigationAblation: %v", err)
		}
		b.WriteString(mit.String())
		return []byte(b.String())
	}},
}

// TestGoldenDigests checks every sweep's report, trace and Prometheus export
// (plus SERVE's request log and the matrix's CSV artifacts) against the
// pinned digests, at every worker count in workerArms: a sweep whose output
// moved with the pool size, or moved at all, fails here. The per-sweep
// worker-invariance tests compare worker counts directly at each sweep's
// own configuration.
func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases {
		for _, workers := range workerArms {
			key := fmt.Sprintf("%s/workers=%d", c.name, workers)
			sum := sha256.Sum256(c.run(t, workers))
			got[key] = hex.EncodeToString(sum[:])
		}
	}
	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: sha256 %s, golden %s", key, sum, want[key])
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry has no case", key)
		}
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeGolden writes sha256sum-style lines, sorted by key.
func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s  %s\n", got[k], k)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
