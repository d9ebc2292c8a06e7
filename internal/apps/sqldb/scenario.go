package sqldb

import (
	"fmt"
	"strings"

	"faultstudy/internal/faultinject"
)

// Scenario returns the executable reproduction of the seeded MySQL bug named
// by key, or false for a key with no scenario.
func Scenario(srv *Server, key string) (faultinject.Scenario, bool) {
	env := srv.Env()
	q := func(sql string) faultinject.Op {
		return faultinject.Op{Name: sql, Do: func() error {
			_, err := srv.Exec(sql)
			return err
		}}
	}
	seedTable := func(rows int) []faultinject.Op {
		ops := []faultinject.Op{
			q("CREATE TABLE t (k INT, name TEXT)"),
			q("CREATE INDEX k_idx ON t (k)"),
		}
		for i := 1; i <= rows; i++ {
			ops = append(ops, q(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)))
		}
		return ops
	}

	var sc faultinject.Scenario
	switch key {
	case MechIndexUpdateScan:
		sc = faultinject.Scenario{
			Description: "an UPDATE moves indexed keys to values found later in the scan",
			Ops: append(seedTable(5),
				q("UPDATE t SET k = k + 1")),
		}
	case MechOrderByEmpty:
		sc = faultinject.Scenario{
			Description: "a SELECT matching zero records carries an ORDER BY",
			Ops: append(seedTable(3),
				q("SELECT * FROM t WHERE k > 100 ORDER BY name")),
		}
	case MechCountEmpty:
		sc = faultinject.Scenario{
			Description: "COUNT runs against a freshly created empty table",
			Ops: []faultinject.Op{
				q("CREATE TABLE empty_t (c INT)"),
				q("SELECT COUNT(c) FROM empty_t"),
			},
		}
	case MechOptimizeCrash:
		sc = faultinject.Scenario{
			Description: "OPTIMIZE TABLE rebuilds a table",
			Ops: append(seedTable(3),
				q("OPTIMIZE TABLE t")),
		}
	case MechFlushAfterLock:
		sc = faultinject.Scenario{
			Description: "FLUSH TABLES is issued while LOCK TABLES is held",
			Ops: append(seedTable(2),
				q("LOCK TABLES t READ"),
				q("FLUSH TABLES")),
		}
	case MechFDCompetition:
		sc = faultinject.Scenario{
			Description: "a co-hosted web server consumes nearly every descriptor",
			Stage: func() {
				for env.FDs().Limit()-env.FDs().InUse() > 0 {
					if _, err := env.FDs().Open("httpd-neighbor"); err != nil {
						break
					}
				}
			},
			Ops: []faultinject.Op{q("CREATE TABLE t2 (c INT)")},
		}
	case MechNoReverseDNS:
		sc = faultinject.Scenario{
			Description: "a client connects from an address with no PTR record",
			Stage: func() {
				env.DNS().AddHostNoReverse("client.remote.example", "10.7.7.7")
			},
			Ops: []faultinject.Op{{Name: "connect 10.7.7.7", Do: func() error {
				_, err := srv.Connect("10.7.7.7")
				return err
			}}},
		}
	case MechDBFileLimit:
		sc = faultinject.Scenario{
			Description: "the table datafile reaches the maximum allowed file size",
			Stage: func() {
				_ = env.Disk().SetCapacity(1 << 30)
			},
			Ops: append([]faultinject.Op{
				q("CREATE TABLE big (c INT)"),
				{Name: "pre-grow datafile", Do: func() error {
					return env.Disk().Append("/var/db/big.ISD", Owner,
						env.Disk().MaxFileSize()-rowBytes/2)
				}},
			},
				q("INSERT INTO big VALUES (1)")),
		}
	case MechFSFull:
		sc = faultinject.Scenario{
			Description: "another tenant fills the data partition",
			Ops: []faultinject.Op{
				q("CREATE TABLE t3 (c INT)"),
				{Name: "partition fills", Do: func() error {
					return env.Disk().FillFrom("other-tenant", rowBytes/2)
				}},
				q("INSERT INTO t3 VALUES (1)"),
			},
		}
	case MechSignalMaskRace:
		sc = faultinject.Scenario{
			Description: "a signal lands inside the unmask window during a query",
			Stage:       func() { env.Sched().Force(MechSignalMaskRace, 0) },
			Ops: []faultinject.Op{
				q("CREATE TABLE r (c INT)"),
			},
		}
	case MechLoginAdminRace:
		sc = faultinject.Scenario{
			Description: "a login interleaves with the administrator's privilege reload",
			Stage:       func() { env.Sched().Force(MechLoginAdminRace, 0) },
			Ops: []faultinject.Op{
				q("GRANT SELECT ON t TO newuser"),
				{Name: "login during reload", Do: func() error {
					_, err := srv.Connect("10.0.0.8")
					return err
				}},
			},
		}
	case MechNullDeref, MechStaleBuffer, MechBadInit, MechExecLoop,
		MechBounds, MechMissingCheck:
		defect := strings.TrimPrefix(key, "sqldb/")
		tbl := "bug_" + underscore(defect)
		sc = faultinject.Scenario{
			Description: "a query exercises the " + defect + " defect path",
			Ops: []faultinject.Op{
				q("CREATE TABLE " + tbl + " (c INT)"),
				q("SELECT * FROM " + tbl),
			},
		}
	default:
		return faultinject.Scenario{}, false
	}
	sc.Mechanism = key
	return sc, true
}

func underscore(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			out[i] = '_'
		} else {
			out[i] = s[i]
		}
	}
	return string(out)
}
