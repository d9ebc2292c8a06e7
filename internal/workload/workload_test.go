package workload

import (
	"testing"

	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/simenv"
)

func TestHTTPRequestsDeterministic(t *testing.T) {
	a := HTTPRequests(1, DefaultHTTPMix(), 200, nil)
	b := HTTPRequests(1, DefaultHTTPMix(), 200, nil)
	if len(a) != 200 {
		t.Fatalf("generated %d requests", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical workloads")
		}
	}
	c := HTTPRequests(2, DefaultHTTPMix(), 200, nil)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestHTTPMixProportions(t *testing.T) {
	reqs := HTTPRequests(3, DefaultHTTPMix(), 2000, nil)
	static := 0
	for _, r := range reqs {
		if r.Path == "/index.html" {
			static++
		}
	}
	// 70% +- 5 points.
	if static < 1250 || static > 1550 {
		t.Errorf("static share = %d/2000", static)
	}
	// Zero mix falls back to the default.
	if got := HTTPRequests(1, HTTPMix{}, 10, nil); len(got) != 10 {
		t.Errorf("zero mix generated %d", len(got))
	}
}

func TestHTTPWorkloadRunsCleanly(t *testing.T) {
	env := simenv.New(5)
	srv := httpd.New(env, nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for i, req := range HTTPRequests(7, DefaultHTTPMix(), 500, nil) {
		resp, err := srv.Serve(req)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.Path, err)
		}
		if resp.Status != 200 && resp.Status != 404 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
	}
}

func TestSQLWorkloadRunsCleanly(t *testing.T) {
	env := simenv.New(5)
	srv := sqldb.New(env, nil)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	stmts := SQLStatements(9, 400, nil)
	if len(stmts) != 400 {
		t.Fatalf("generated %d statements", len(stmts))
	}
	for i, sql := range stmts {
		if _, err := srv.Exec(sql); err != nil {
			t.Fatalf("statement %d (%q): %v", i, sql, err)
		}
	}
}

func TestDesktopWorkloadRunsCleanly(t *testing.T) {
	env := simenv.New(5)
	d := desktop.New(env, nil)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for i, ev := range DesktopEvents(11, 400, nil) {
		if err := d.Dispatch(ev); err != nil {
			t.Fatalf("event %d (%+v): %v", i, ev, err)
		}
	}
}

func TestSQLStatementsDeterministic(t *testing.T) {
	a := SQLStatements(1, 100, nil)
	b := SQLStatements(1, 100, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical statements")
		}
	}
}
