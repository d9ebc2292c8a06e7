package sqldb

import (
	"fmt"
	"math/rand"
	"testing"

	"faultstudy/internal/simenv"
)

func benchServer(b *testing.B) *Server {
	b.Helper()
	env := simenv.New(1, simenv.WithDiskBytes(1<<30), simenv.WithMaxFileSize(1<<28))
	srv := New(env, nil)
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	return srv
}

func BenchmarkParseSelect(b *testing.B) {
	const q = "SELECT k, name FROM t WHERE k >= 100 ORDER BY name DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	srv := benchServer(b)
	if _, err := srv.Exec("CREATE TABLE t (k INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row')", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexedSelect(b *testing.B) {
	srv := benchServer(b)
	if _, err := srv.Exec("CREATE TABLE t (k INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Exec("CREATE INDEX ki ON t (k)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := srv.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := srv.Exec("SELECT name FROM t WHERE k = 999")
		if err != nil || len(rs.Rows) != 1 {
			b.Fatalf("rows=%v err=%v", rs, err)
		}
	}
}

func BenchmarkScanOrderBy(b *testing.B) {
	srv := benchServer(b)
	if _, err := srv.Exec("CREATE TABLE t (k INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := srv.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", (i*7919)%1000, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Exec("SELECT * FROM t WHERE k < 500 ORDER BY k LIMIT 50"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	b.ReportAllocs()
	bt := newBTree()
	for i := 0; i < b.N; i++ {
		bt.Insert(IntValue(int64(i%100000)), i)
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	bt := newBTree()
	for i := 0; i < 100000; i++ {
		bt.Insert(IntValue(int64(i)), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := bt.Lookup(IntValue(int64(i % 100000))); len(rows) != 1 {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	srv := benchServer(b)
	if _, err := srv.Exec("CREATE TABLE t (k INT, name TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := srv.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := srv.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		srv.Stop()
		if err := srv.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeArrival measures SERVE's statement path: one op is 2,400
// open-loop arrivals from 1,200 users, the sweep's per-arm defaults, served
// through a freshly warmed componentized server so the serve table grows
// the same way in every op.
func BenchmarkServeArrival(b *testing.B) {
	const arrivals, users = 2400, 1200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := simenv.New(1, simenv.WithDiskBytes(1<<30), simenv.WithMaxFileSize(1<<28))
		c := Componentize(New(env, nil))
		if err := c.Start(); err != nil {
			b.Fatal(err)
		}
		if err := c.ServeWarm(); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		b.StartTimer()
		for seq := 0; seq < arrivals; seq++ {
			if err := c.ServeArrival(seq, rng.Intn(users), rng.Float64()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
