package obsv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// legacyEscape and legacySeriesKey are the registry's key encoding before it
// moved to append-based builders, kept verbatim so the new encoding is
// checked against the one every existing export was produced with.
func legacyEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func legacySeriesKey(name string, ls []Label) string {
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(legacyEscape(l.Value))
	}
	return name + "{" + b.String() + "}"
}

func TestRegistryRepeatLookupDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	ls := L("rung", "retry", "app", "httpd", "class", "EDT")
	r.Counter("lab_runs_total", ls...).Inc()
	r.Histogram("lab_latency_seconds", LatencyBuckets, ls...).Observe(1)
	if n := testing.AllocsPerRun(100, func() { r.Counter("lab_runs_total", ls...).Inc() }); n != 0 {
		t.Errorf("repeat Counter lookup: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Histogram("lab_latency_seconds", LatencyBuckets, ls...).Observe(2)
	}); n != 0 {
		t.Errorf("repeat Histogram lookup: %v allocs, want 0", n)
	}
}

func TestRegistryUnsortedLabelsShareSeries(t *testing.T) {
	r := NewRegistry()
	sorted := r.Counter("c", L("a", "1", "b", "2", "c", "3")...)
	unsorted := r.Counter("c", Label{"c", "3"}, Label{"a", "1"}, Label{"b", "2"})
	if sorted != unsorted {
		t.Error("unsorted labels resolved to a different series than sorted ones")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryOwnsItsLabels(t *testing.T) {
	for _, order := range []string{"sorted", "unsorted"} {
		t.Run(order, func(t *testing.T) {
			r := NewRegistry()
			ls := []Label{{"a", "1"}, {"b", "2"}}
			if order == "unsorted" {
				ls[0], ls[1] = ls[1], ls[0]
			}
			r.Counter("c", ls...).Inc()
			ls[0].Value, ls[1].Value = "mutated", "mutated"

			if got := r.Counter("c", L("a", "1", "b", "2")...).Value(); got != 1 {
				t.Errorf("original series value = %v, want 1", got)
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if out := buf.String(); strings.Contains(out, "mutated") || !strings.Contains(out, `c{a="1",b="2"} 1`) {
				t.Errorf("export reflects the caller's later mutation:\n%s", out)
			}
			if r.Len() != 1 {
				t.Errorf("Len = %d, want 1", r.Len())
			}
		})
	}
}

func TestRegistryEscapedLabelValues(t *testing.T) {
	values := []string{`back\slash`, "new\nline", `"quoted"`, "all\\\n\"three", "plain", ""}
	r := NewRegistry()
	for i, v := range values {
		ls := L("v", v, "i", fmt.Sprint(i))
		if got, want := seriesKey("esc", ls), legacySeriesKey("esc", ls); got != want {
			t.Errorf("seriesKey(%q) = %q, legacy %q", v, got, want)
		}
		if got, want := escapeLabelValue(v), legacyEscape(v); got != want {
			t.Errorf("escapeLabelValue(%q) = %q, legacy %q", v, got, want)
		}
		r.Counter("esc", ls...).Add(float64(i))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		line := fmt.Sprintf("esc{i=%q,v=%q} %d\n", fmt.Sprint(i), legacyEscape(v), i)
		if !strings.Contains(buf.String(), line) {
			t.Errorf("export lacks %q:\n%s", line, buf.String())
		}
	}
}
