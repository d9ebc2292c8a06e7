package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the command in-process and returns its exit status and output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrors pins the invocations that are rejected before anything
// runs: telemetry flags on a mode that records no telemetry, two modes at
// once, and stray positional arguments. Each exits 2 and writes no file.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"load with telemetry", []string{"-load", "-trace", "x.jsonl", "-prom", "x.prom"}, "-load records no telemetry"},
		{"lint with metrics", []string{"-lint", "-metrics"}, "-lint records no telemetry"},
		{"ablate with timeline", []string{"-ablate", "-timeline"}, "-ablate records no telemetry"},
		{"sensitivity with prom", []string{"-sensitivity", "-prom", "x.prom"}, "-sensitivity records no telemetry"},
		{"bare matrix with trace", []string{"-trace", "x.jsonl"}, "the matrix without -supervised records no telemetry"},
		{"two modes", []string{"-serve", "-mreboot"}, "-mreboot and -serve select different modes"},
		{"positional argument", []string{"serve"}, `unexpected argument "serve"`},
		{"argument after a mode", []string{"-durable", "extra"}, `unexpected argument "extra"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(c.args))
			for i, a := range c.args {
				if strings.HasSuffix(a, ".jsonl") || strings.HasSuffix(a, ".prom") {
					a = filepath.Join(dir, a)
				}
				args[i] = a
			}
			code, stdout, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not mention %q", stderr, c.want)
			}
			if stdout != "" {
				t.Errorf("a usage error printed a report: %q", stdout)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("a usage error left %d file(s) behind", len(files))
			}
		})
	}
}

// TestDurableTraceRoundTrip is a passing invocation end to end: a telemetry
// mode writes its trace and metrics, and -checktrace accepts the trace.
func TestDurableTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "d.jsonl"), filepath.Join(dir, "d.prom")
	code, stdout, stderr := runCLI(t, "-durable", "-workers", "2", "-trace", trace, "-prom", prom)
	if code != 0 {
		t.Fatalf("-durable exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote metrics to "+prom) {
		t.Errorf("stdout lacks the metrics notice:\n%s", stdout)
	}
	for _, f := range []string{trace, prom} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty (%v)", f, err)
		}
	}
	code, stdout, stderr = runCLI(t, "-checktrace", trace)
	if code != 0 || !strings.HasPrefix(stdout, "trace OK: ") {
		t.Fatalf("-checktrace exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestMechanismLabelsExtensionApps runs one cache mechanism with telemetry:
// its metric series and trace episodes carry the cache's application and
// the mechanism's class, looked up in the full catalogue.
func TestMechanismLabelsExtensionApps(t *testing.T) {
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "c.jsonl"), filepath.Join(dir, "c.prom")
	code, _, stderr := runCLI(t, "-mechanism", "cache/aof-disk-full", "-prom", prom, "-trace", trace)
	if code != 0 {
		t.Fatalf("-mechanism exit %d: %s", code, stderr)
	}
	for _, c := range []struct {
		file       string
		want, lost []string
	}{
		{prom, []string{`app="cached"`, `class="EDN"`}, []string{`app="unknown"`, `class="?"`}},
		{trace, []string{`"app":"cached"`, `"class":"EDN"`}, []string{`"app":"unknown"`, `"class":"?"`}},
	} {
		b, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.want {
			if !bytes.Contains(b, []byte(w)) {
				t.Errorf("%s lacks %s", filepath.Base(c.file), w)
			}
		}
		for _, l := range c.lost {
			if bytes.Contains(b, []byte(l)) {
				t.Errorf("%s holds %s", filepath.Base(c.file), l)
			}
		}
	}
}

// TestCheckTraceRejectsEmpty checks a failing gate exits 1, not 2.
func TestCheckTraceRejectsEmpty(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(t, "-checktrace", empty); code != 1 || !strings.Contains(stderr, "trace is empty") {
		t.Fatalf("exit %d, stderr %q; want 1 and the empty-trace error", code, stderr)
	}
}

// TestUsageListsEveryMode checks -h succeeds and the generated usage text
// names every selector flag.
func TestUsageListsEveryMode(t *testing.T) {
	code, _, stderr := runCLI(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	for _, flag := range []string{"-supervised", "-mechanism", "-soak", "-lint", "-load", "-sensitivity",
		"-ablate", "-resil", "-mreboot", "-scope", "-serve", "-corpus", "-durable", "-checktrace"} {
		if !strings.Contains(stderr, "\n  "+flag) {
			t.Errorf("usage does not list %s", flag)
		}
	}
	if !strings.Contains(stderr, "exits 1 unless") {
		t.Error("usage does not describe any gate")
	}
}
