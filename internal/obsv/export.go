package obsv

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// formatFloat renders a float the same way every time: shortest exact
// representation, so exports are byte-stable.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabels renders a sorted label list in exposition syntax, with an
// optional extra label appended (used for histogram le bounds).
func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, 0, len(all))
	for _, l := range all {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Name, escapeLabelValue(l.Value)))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), sorted by metric name then label set, with # HELP
// and # TYPE headers emitted once per metric name. A nil registry writes
// nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	lastName := ""
	for _, s := range r.sortedSeries() {
		if s.name != lastName {
			if help := metricHelp[s.name]; help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, typeName(s.kind))
			lastName = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, promLabels(s.labels), formatFloat(s.c.Value()))
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", s.name, promLabels(s.labels), formatFloat(s.g.Value()))
		case kindHistogram:
			bounds, cum, sum, total := s.h.snapshot()
			for i, ub := range bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name,
					promLabels(s.labels, Label{Name: "le", Value: formatFloat(ub)}), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", s.name,
				promLabels(s.labels, Label{Name: "le", Value: "+Inf"}), cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum%s %s\n", s.name, promLabels(s.labels), formatFloat(sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", s.name, promLabels(s.labels), total)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// typeName maps a metric kind to its exposition-format type keyword.
func typeName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}
