package obsv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// -update regenerates the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds the registry every exporter golden test renders.
func fixtureRegistry() *Registry {
	r := NewRegistry()
	r.Counter(MetricFailures, L("app", "apache", "class", "EI", "mechanism", "httpd/null-deref")...).Add(4)
	r.Counter(MetricFailures, L("app", "mysql", "class", "EDT", "mechanism", "sqldb/signal-mask-race")...).Inc()
	r.Gauge(MetricDegraded, L("app", "apache")...).Set(1)
	h := r.Histogram(MetricEpisodeSeconds, LatencyBuckets, L("app", "apache", "class", "EI")...)
	for _, d := range []time.Duration{800 * time.Millisecond, 31 * time.Second, 4 * time.Minute} {
		h.ObserveDuration(d)
	}
	r.Counter(MetricWorkloadOps, L("stream", "http", "category", "static")...).Add(70)
	return r
}

// checkGolden compares got against the named golden file, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "registry.prom", buf.Bytes())
}

func TestExportersDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := fixtureRegistry().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := fixtureRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical registries rendered differently")
	}
}
