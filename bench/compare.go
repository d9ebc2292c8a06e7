package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// MinPairs is the fewest parent/change run pairs a comparison accepts.
const MinPairs = 10

// Bound is one metric's comparison rule from BENCHMARK.json.
type Bound struct {
	// Unit is the metric's unit.
	Unit string `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better"`
	// Bound is the share of the parent's median by which the metric may
	// worsen before it counts as regressed; nil for per-layer metrics,
	// which have none.
	Bound *float64 `json:"bound"`
}

// ReadBounds reads the end_to_end and per_layer metrics of a BENCHMARK.json.
func ReadBounds(path string) (map[string]Bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read bounds: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name string `json:"name"`
			Bound
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Bound
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	out := map[string]Bound{}
	for _, m := range spec.EndToEnd {
		if m.Bound.Bound == nil {
			return nil, fmt.Errorf("bench: %s: end-to-end metric %s has no bound", path, m.Name)
		}
		out[m.Name] = m.Bound
	}
	for _, m := range spec.PerLayer {
		out[m.Name] = m.Bound
	}
	for name, b := range out {
		if b.Better != "lower" && b.Better != "higher" {
			return nil, fmt.Errorf("bench: %s: metric %s: better must be lower or higher, not %q", path, name, b.Better)
		}
	}
	return out, nil
}

// ReadResult reads a saved labbench output — the whole stdout or just its
// last line — and returns the Result line.
func ReadResult(r io.Reader) (Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var res Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		return Result{}, fmt.Errorf("bench: last line is not a labbench result: %v", err)
	}
	return res, nil
}

// Row is one metric's comparison between the parent's and the change's
// runs. A metric key carries its workload as "<workload>/<metric>" when the
// runs measured several workloads.
type Row struct {
	// Key is the metric's key in the result lines.
	Key string
	// Unit is the metric's unit.
	Unit string
	// Parent and Change are each side's median and quartiles (Q1, Q3).
	Parent, Change [3]float64
	// Wins counts pairs the change won; ties count for neither side.
	Wins, Pairs int
	// Verdict is "improved", "regressed", "unresolved", "unchanged", or
	// "-" for a per-layer metric that did not improve.
	Verdict string
}

// String renders the row, giving the change as a share of the parent's
// median with that median as its base.
func (r Row) String() string {
	delta := "n/a"
	if r.Parent[0] != 0 {
		delta = fmt.Sprintf("%+.2f%% of %.6g %s", 100*(r.Change[0]-r.Parent[0])/math.Abs(r.Parent[0]), r.Parent[0], r.Unit)
	}
	return fmt.Sprintf("%-34s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %-28s %2d/%-2d %s",
		r.Key, r.Parent[0], r.Parent[1], r.Parent[2], r.Change[0], r.Change[1], r.Change[2], delta, r.Wins, r.Pairs, r.Verdict)
}

// Compare pairs parent[i] with change[i] — runs made alternately, the same
// number on each side, at least MinPairs — and gives every metric its
// verdict under the BENCHMARK.json bounds:
//
//   - improved: the change wins at least 9 of every 10 pairs and its median
//     differs from the parent's by more than the parent's interquartile
//     range, in the better direction;
//   - regressed: the change's median is worse than the parent's by more than
//     the metric's bound (or more iterations failed);
//   - unresolved: the run-to-run spread (interquartile range over median, the
//     wider side) exceeds the bound, unless every change run reads better
//     than every parent run;
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound: they are either improved or "-".
func Compare(parent, change []Result, bounds map[string]Bound) ([]Row, error) {
	if len(parent) != len(change) || len(parent) < MinPairs {
		return nil, fmt.Errorf("bench: compare needs the same number of parent and change runs, at least %d (have %d and %d)",
			MinPairs, len(parent), len(change))
	}
	var keys []string
	for k := range parent[0].Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows []Row
	for _, key := range keys {
		name := key[strings.LastIndex(key, "/")+1:]
		b, ok := bounds[name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s is not in BENCHMARK.json", key)
		}
		var p, c []float64
		for i := range parent {
			pv, okP := parent[i].Metrics[key]
			cv, okC := change[i].Metrics[key]
			if !okP || !okC {
				return nil, fmt.Errorf("bench: metric %s missing from pair %d", key, i+1)
			}
			p, c = append(p, pv.Value), append(c, cv.Value)
		}
		rows = append(rows, compareMetric(key, b, p, c))
	}
	failedP, failedC := 0, 0
	for i := range parent {
		failedP += parent[i].Failed
		failedC += change[i].Failed
	}
	failed := Row{Key: "failed", Unit: "count", Parent: [3]float64{float64(failedP)}, Change: [3]float64{float64(failedC)},
		Pairs: len(parent), Verdict: "unchanged"}
	if failedC > failedP {
		failed.Verdict = "regressed"
	}
	return append(rows, failed), nil
}

// compareMetric applies Compare's rules to one metric's paired values.
func compareMetric(key string, b Bound, p, c []float64) Row {
	row := Row{Key: key, Unit: b.Unit, Pairs: len(p)}
	quart := func(xs []float64) [3]float64 {
		q1, _, q3, _ := Quartiles(xs)
		return [3]float64{Median(xs), q1, q3}
	}
	row.Parent, row.Change = quart(p), quart(c)
	better := func(x, y float64) bool { // x reads better than y
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range p {
		if better(c[i], p[i]) {
			row.Wins++
		}
	}
	mp, mc := row.Parent[0], row.Change[0]
	iqr := row.Parent[2] - row.Parent[1]
	switch {
	case row.Wins*10 >= 9*row.Pairs && math.Abs(mc-mp) > iqr && better(mc, mp):
		row.Verdict = "improved"
	case b.Bound == nil:
		row.Verdict = "-"
	case better(mp, mc) && math.Abs(mc-mp) > *b.Bound*math.Abs(mp):
		row.Verdict = "regressed"
	case math.Max(Spread(p), Spread(c)) > *b.Bound && !allBetter(c, p, better):
		row.Verdict = "unresolved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(c, p []float64, better func(x, y float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
