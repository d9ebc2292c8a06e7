package experiment

import (
	"fmt"

	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/stats"
	"faultstudy/internal/workload"
)

// OpsToFailurePoint is one load mix's time-to-failure measurement for a
// resource-accumulation fault: the paper's §5.1 observation that the
// "failure point varies with load but always arrives", made quantitative.
type OpsToFailurePoint struct {
	// Label names the load mix.
	Label string
	// CGIShare is the CGI fraction of the mix, the resource-consuming
	// request class for the measured mechanism.
	CGIShare float64
	// OpsToFailure is the number of requests served before the fault
	// manifested (one past the end when it never did).
	OpsToFailure int
	// Failed reports whether the fault manifested within the budget.
	Failed bool
}

// RunOpsToFailure drives the process-table-exhaustion fault (hung CGI
// children) with request mixes of increasing CGI share and measures how many
// requests each sustains before failing. More resource-consuming load means
// an earlier failure; a mix with no CGI at all never fails.
func RunOpsToFailure(maxOps int, seed int64) ([]OpsToFailurePoint, error) {
	mixes := []struct {
		label string
		mix   workload.HTTPMix
	}{
		{"static-only", workload.HTTPMix{Static: 100}},
		{"light-cgi", workload.HTTPMix{Static: 90, CGI: 10}},
		{"default", workload.DefaultHTTPMix()},
		{"cgi-heavy", workload.HTTPMix{Static: 50, CGI: 50}},
		{"cgi-only", workload.HTTPMix{CGI: 100}},
	}
	var points []OpsToFailurePoint
	for _, m := range mixes {
		env := simenv.New(seed, simenv.WithProcLimit(64), simenv.WithFDLimit(1024),
			simenv.WithDiskBytes(1<<30), simenv.WithMaxFileSize(1<<29))
		srv := httpd.New(env, faultinject.NewSet(httpd.MechProcTableFull))
		if err := srv.Start(); err != nil {
			return nil, fmt.Errorf("experiment: ops-to-failure start: %w", err)
		}
		total := m.mix.Static + m.mix.Listing + m.mix.CGI + m.mix.Proxy + m.mix.NotFound
		point := OpsToFailurePoint{
			Label:    m.label,
			CGIShare: float64(m.mix.CGI) / float64(total),
		}
		reqs := workload.HTTPRequests(seed, m.mix, maxOps, nil)
		point.OpsToFailure = maxOps + 1
		for i, req := range reqs {
			if _, err := srv.Serve(req); err != nil {
				if _, ok := faultinject.AsFailure(err); !ok {
					return nil, fmt.Errorf("experiment: ops-to-failure op %d: %w", i, err)
				}
				point.OpsToFailure = i + 1
				point.Failed = true
				break
			}
		}
		srv.Stop()
		points = append(points, point)
	}
	return points, nil
}

// RenderOpsToFailure renders the sweep.
func RenderOpsToFailure(points []OpsToFailurePoint) string {
	tbl := &stats.Table{Header: []string{"load mix", "CGI share", "requests to failure"}}
	for _, p := range points {
		outcome := fmt.Sprint(p.OpsToFailure)
		if !p.Failed {
			outcome = "never (within budget)"
		}
		tbl.Add(p.Label, fmt.Sprintf("%.0f%%", 100*p.CGIShare), outcome)
	}
	return "Requests sustained before the hung-children fault manifests:\n" + tbl.String()
}
