package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"faultstudy/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/mechanism.sha256")

// mechanismGolden pins the bare strategies' telemetry: one digest per
// catalogue mechanism. Regenerate it only for an intended output change:
// `go test -run TestMechanismDigests ./cmd/recoverylab -args -update`.
const mechanismGolden = "testdata/mechanism.sha256"

// TestMechanismDigests runs -mechanism with every telemetry output for each
// mechanism in the full catalogue and compares a digest of the report, the
// timeline and the metrics summary (stdout without its "wrote … to" lines,
// which name temporary files), the JSONL trace and the Prometheus dump
// against the pinned digests. Every strategy's episodes, spans and metric
// series pass through here.
func TestMechanismDigests(t *testing.T) {
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "m.jsonl"), filepath.Join(dir, "m.prom")
	got := map[string]string{}
	for _, m := range experiment.CorpusRegistry().Mechanisms() {
		code, stdout, stderr := runCLI(t, "-mechanism", m.Key, "-seed", "42",
			"-trace", trace, "-prom", prom, "-timeline", "-metrics")
		if code != 0 {
			t.Fatalf("-mechanism %s exit %d: %s", m.Key, code, stderr)
		}
		h := sha256.New()
		for _, line := range strings.SplitAfter(stdout, "\n") {
			if !strings.HasPrefix(line, "wrote ") {
				h.Write([]byte(line))
			}
		}
		for _, f := range []string{trace, prom} {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		got[m.Key] = hex.EncodeToString(h.Sum(nil))
	}
	if *update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.MkdirAll(filepath.Dir(mechanismGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mechanismGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(mechanismGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", mechanismGolden, line)
		}
		want[fields[1]] = fields[0]
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: sha256 %s, golden %s", key, sum, want[key])
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden entry has no mechanism", key)
		}
	}
}
