package component

import (
	"testing"
	"time"
)

// BenchmarkTreeReboot measures one microreboot through a five-part tree, the
// step every microreboot rung and sweep outage window takes: a leaf alone,
// and widened to the root's subtree, each with an outage window.
func BenchmarkTreeReboot(b *testing.B) {
	for _, bc := range []struct {
		name   string
		target string
		widen  bool
	}{
		{"leaf", "logger", false},
		{"subtree", "core", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tree := NewTree(&fakeClock{})
			tree.MustAdd(Spec{Component: NewPart("core", Hooks{}), StartCost: time.Millisecond})
			for _, name := range []string{"listener", "logger", "cache", "cgi"} {
				tree.MustAdd(Spec{Component: NewPart(name, Hooks{}), Deps: []string{"core"}, StartCost: time.Millisecond})
			}
			if err := tree.StartAll(); err != nil {
				b.Fatal(err)
			}
			var outage time.Duration
			window := func(cost time.Duration) { outage += cost }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tree.Reboot(bc.target, bc.widen, window); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
