package desktop

import (
	"encoding/json"
	"maps"
	"testing"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// stateOf reads the session's logical state into the snapshot's state
// struct. Rendered as JSON it is the reference the binary codec is checked
// against.
func stateOf(d *Desktop) desktopState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return desktopState{
		StartHostname: d.startHostname,
		Applets:       append([]string(nil), d.applets...),
		CalendarView:  d.calendarView,
		DialogOpen:    d.dialogOpen,
		MenuOpen:      d.menuOpen,
		Cells:         maps.Clone(d.cells),
		SoundFDWant:   d.soundFDWant,
		Events:        d.events,
	}
}

func renderState(t *testing.T, d *Desktop) string {
	t.Helper()
	b, err := json.Marshal(stateOf(d))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func fuzzDesktop() *Desktop {
	return New(simenv.New(4, simenv.WithFDLimit(512)), faultinject.NewSet(MechSoundSocketLeak))
}

// fuzzText draws a short valid-UTF-8 string from the input. Only valid
// UTF-8 can be compared through JSON, which rewrites invalid bytes.
func fuzzText(b byte) string {
	alphabet := []string{"", "clock", "pager", "tasklist", "é", "=", "A1", "\x00"}
	return alphabet[b%8] + alphabet[(b/8)%8]
}

// FuzzSnapshotRoundTrip drives a session through an event sequence drawn
// from the input, then checks that Snapshot → Stop → Restore into a fresh
// session yields the same logical state as restoring the JSON rendering of
// the state struct — including the restored empty applet list, which comes
// back nil so Start installs the defaults. The raw input, fed to Restore,
// must fail or restore without panicking.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Remove every default applet, then snapshot.
	f.Add([]byte{1, 1, 1, 2, 1, 3})
	f.Add([]byte{0, 6, 4, 0, 5, 42, 6, 7, 7, 0, 8, 0, 9, 0})
	if snap, err := fuzzDesktop().Snapshot(); err == nil {
		f.Add(snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = fuzzDesktop().Restore(data)

		d := fuzzDesktop()
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			arg := fuzzText(data[i+1])
			var ev Event
			switch data[i] % 10 {
			case 0:
				ev = Event{Widget: "panel", Action: "add-applet", Arg: arg}
			case 1:
				ev = Event{Widget: "panel", Action: "remove-applet", Arg: arg}
			case 2:
				ev = Event{Widget: "panel", Action: "open-main-menu"}
			case 3:
				ev = Event{Widget: "panel", Action: "click-desktop"}
			case 4:
				ev = Event{Widget: "calendar", Action: "view-year"}
			case 5:
				ev = Event{Widget: "gnumeric", Action: "set-cell", Arg: arg + "=" + fuzzText(data[i+1]>>3)}
			case 6:
				ev = Event{Widget: "gnumeric", Action: "open-define-name"}
			case 7:
				ev = Event{Widget: "gnumeric", Action: "close-dialog"}
			case 8:
				ev = Event{Widget: "session", Action: "play-sound"}
			case 9:
				d.env.SetHostname(arg)
				continue
			}
			_ = d.Dispatch(ev)
		}
		ref, err := json.Marshal(stateOf(d))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := d.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		d.Stop()

		got := fuzzDesktop()
		gotErr := got.Restore(snap)
		var st desktopState
		if err := json.Unmarshal(ref, &st); err != nil {
			t.Fatal(err)
		}
		want := fuzzDesktop()
		wantErr := want.restoreState(st)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("restore err = %v, reference err = %v", gotErr, wantErr)
		}
		if g, w := renderState(t, got), renderState(t, want); g != w {
			t.Errorf("restored state\n got %s\nwant %s", g, w)
		}
	})
}

func TestEmptyAppletListRestoresDefaults(t *testing.T) {
	d := fuzzDesktop()
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"clock", "pager", "tasklist"} {
		if err := d.Dispatch(Event{Widget: "panel", Action: "remove-applet", Arg: a}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(d).Applets; len(got) != 3 {
		t.Errorf("applets after restoring an empty list = %q, want the three defaults", got)
	}
}
