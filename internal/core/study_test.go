package core

import (
	"context"
	"testing"

	"faultstudy/internal/bugsite"
)

// unreachable is a base URL nothing listens on.
const unreachable = "http://127.0.0.1:1"

// TestStudyReturnsFirstErrorInPaperOrder: with two trackers unreachable, the
// concurrent Study still returns the error of the one that comes first in
// paper order (Apache, GNOME, MySQL), whichever fails first in time.
func TestStudyReturnsFirstErrorInPaperOrder(t *testing.T) {
	live := startSites(t, bugsite.Config{Seed: 1999})
	ctx := context.Background()
	_, apacheErr := MineApache(ctx, unreachable)
	_, gnomeErr := MineGnome(ctx, unreachable)
	if apacheErr == nil || gnomeErr == nil {
		t.Fatal("premise: an unreachable tracker mines without error")
	}
	for _, tc := range []struct {
		name string
		src  Sources
		want error
	}{
		{"apache and mysql", Sources{ApacheBase: unreachable, GnomeBase: live.GnomeBase, MySQLBase: unreachable}, apacheErr},
		{"gnome and mysql", Sources{ApacheBase: live.ApacheBase, GnomeBase: unreachable, MySQLBase: unreachable}, gnomeErr},
	} {
		for run := 0; run < 5; run++ {
			res, err := Study(ctx, tc.src, Options{})
			if err == nil || res != nil {
				t.Fatalf("%s unreachable: Study returned (%v, %v), want an error", tc.name, res, err)
			}
			if err.Error() != tc.want.Error() {
				t.Errorf("%s unreachable: error %q, want %q", tc.name, err, tc.want)
			}
		}
	}
}

// TestStudyCancelled: a cancelled context ends Study with an error.
func TestStudyCancelled(t *testing.T) {
	src := startSites(t, bugsite.Config{Seed: 1999})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Study(ctx, src, Options{}); err == nil || res != nil {
		t.Errorf("Study under a cancelled context returned (%v, %v), want an error", res, err)
	}
}
