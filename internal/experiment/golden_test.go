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
}

// TestGoldenDigests checks every sweep's report, trace and Prometheus export
// (plus SERVE's request log) against the pinned digests, at 1 and 2 workers.
func TestGoldenDigests(t *testing.T) {
	got := map[string]string{}
	for _, c := range goldenCases {
		for _, workers := range []int{1, 2} {
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
