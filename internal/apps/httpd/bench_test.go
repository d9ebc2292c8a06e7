package httpd

import (
	"testing"

	"faultstudy/internal/simenv"
)

func benchServer(b *testing.B) *Server {
	b.Helper()
	env := simenv.New(1, simenv.WithDiskBytes(1<<31), simenv.WithMaxFileSize(1<<30))
	srv := New(env, nil)
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	return srv
}

func BenchmarkServeStatic(b *testing.B) {
	srv := benchServer(b)
	req := Request{Method: "GET", Path: "/index.html"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Serve(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeDirectoryListing(b *testing.B) {
	srv := benchServer(b)
	req := Request{Method: "GET", Path: "/pub/"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Serve(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeCGI(b *testing.B) {
	srv := benchServer(b)
	req := Request{Method: "GET", Path: "/cgi-bin/env"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Serve(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	srv := benchServer(b)
	for i := 0; i < 100; i++ {
		if _, err := srv.Serve(Request{Method: "GET", Path: "/index.html"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
