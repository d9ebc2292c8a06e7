package experiment

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"

	"faultstudy/internal/recovery"
	"faultstudy/internal/taxonomy"
)

// FigureCSV renders a figure's series as CSV: one row per bucket with
// per-class counts — the machine-readable form of Figures 1–3 for external
// plotting.
func FigureCSV(fig *FigureSeries) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := []string{"bucket"}
	for _, c := range taxonomy.Classes() {
		header = append(header, c.Short())
	}
	header = append(header, "total")
	if err := w.Write(header); err != nil {
		return "", err
	}
	totals := fig.Totals()
	for i, bucket := range fig.Buckets {
		row := []string{bucket}
		for _, c := range taxonomy.Classes() {
			row = append(row, strconv.Itoa(fig.PerClass[c][i]))
		}
		row = append(row, strconv.Itoa(totals[i]))
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

// TableCSV renders a classification table as CSV with measured and paper
// columns.
func TableCSV(t *TableResult) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write([]string{"class", "measured", "paper"}); err != nil {
		return "", err
	}
	for _, c := range taxonomy.Classes() {
		if err := w.Write([]string{c.String(), strconv.Itoa(t.Counts[c]), strconv.Itoa(t.Paper[c])}); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

// MatrixCSV renders the recovery matrix as CSV: one row per fault with its
// class, mechanism, and per-strategy outcome.
func MatrixCSV(m *Matrix) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := []string{"fault", "class", "mechanism"}
	for _, s := range m.Strategies {
		header = append(header, s.String())
	}
	if err := w.Write(header); err != nil {
		return "", err
	}
	for _, fo := range m.PerFault {
		row := []string{fo.FaultID, fo.Class.Short(), fo.Mechanism}
		for _, s := range m.Strategies {
			row = append(row, strconv.FormatBool(fo.Survived[s]))
		}
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

// MatrixSummaryCSV renders the class-by-strategy survival rates as CSV.
func MatrixSummaryCSV(m *Matrix) (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := []string{"class", "faults"}
	for _, s := range m.Strategies {
		header = append(header, s.String()+"_survived")
	}
	if err := w.Write(header); err != nil {
		return "", err
	}
	for _, c := range taxonomy.Classes() {
		n := m.Rate(recovery.StrategyNone, c).N
		row := []string{c.Short(), strconv.Itoa(n)}
		for _, s := range m.Strategies {
			row = append(row, strconv.Itoa(m.Rate(s, c).Hits))
		}
		if err := w.Write(row); err != nil {
			return "", err
		}
	}
	w.Flush()
	return b.String(), w.Error()
}

// ExportAll renders every artifact as named CSV documents (file name ->
// content), for a CLI to write out.
func ExportAll(m *Matrix) (map[string]string, error) {
	out := make(map[string]string, 8)
	for app, fig := range map[string]*FigureSeries{
		"figure1_apache.csv": Figure1Apache(),
		"figure2_gnome.csv":  Figure2Gnome(),
		"figure3_mysql.csv":  Figure3MySQL(),
	} {
		csvText, err := FigureCSV(fig)
		if err != nil {
			return nil, fmt.Errorf("experiment: export %s: %w", app, err)
		}
		out[app] = csvText
	}
	for name, app := range map[string]taxonomy.Application{
		"table1_apache.csv": taxonomy.AppApache,
		"table2_gnome.csv":  taxonomy.AppGnome,
		"table3_mysql.csv":  taxonomy.AppMySQL,
	} {
		csvText, err := TableCSV(Table(app))
		if err != nil {
			return nil, fmt.Errorf("experiment: export %s: %w", name, err)
		}
		out[name] = csvText
	}
	if m != nil {
		full, err := MatrixCSV(m)
		if err != nil {
			return nil, err
		}
		out["recovery_matrix.csv"] = full
		summary, err := MatrixSummaryCSV(m)
		if err != nil {
			return nil, err
		}
		out["recovery_summary.csv"] = summary
	}
	return out, nil
}
