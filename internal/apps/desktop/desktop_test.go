package desktop

import (
	"testing"
	"time"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/taxonomy"
)

func newDesktop(t *testing.T, faults *faultinject.Set, opts ...simenv.Option) *Desktop {
	t.Helper()
	env := simenv.New(23, opts...)
	d := New(env, faults)
	if err := d.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return d
}

func dispatch(t *testing.T, d *Desktop, widget, action, arg string) {
	t.Helper()
	if err := d.Dispatch(Event{Widget: widget, Action: action, Arg: arg}); err != nil {
		t.Fatalf("%s.%s(%s): %v", widget, action, arg, err)
	}
}

func wantFailure(t *testing.T, err error, mech string) *faultinject.FailureError {
	t.Helper()
	fe, ok := faultinject.AsFailure(err)
	if !ok {
		t.Fatalf("error %v is not a FailureError", err)
	}
	if fe.Mechanism != mech {
		t.Fatalf("mechanism = %s, want %s", fe.Mechanism, mech)
	}
	return fe
}

func TestHealthySession(t *testing.T) {
	d := newDesktop(t, nil)
	dispatch(t, d, "panel", "click-tasklist-tab", "")
	dispatch(t, d, "panel", "open-main-menu", "")
	dispatch(t, d, "panel", "click-desktop", "")
	dispatch(t, d, "calendar", "view-year", "")
	dispatch(t, d, "calendar", "prev", "")
	dispatch(t, d, "gnumeric", "open-define-name", "")
	dispatch(t, d, "gnumeric", "press-tab", "")
	dispatch(t, d, "gnumeric", "set-cell", "A1=42")
	dispatch(t, d, "gnumeric", "get-cell", "A1")
	dispatch(t, d, "gmc", "open", "backup.tar.gz")
	dispatch(t, d, "session", "play-sound", "")
	if d.events != 11 {
		t.Errorf("events = %d, want 11", d.events)
	}
	if n := d.Env().FDs().OwnedBy(Owner); n != 0 {
		t.Errorf("healthy session holds %d fds", n)
	}
}

func TestDispatchErrors(t *testing.T) {
	d := newDesktop(t, nil)
	if err := d.Dispatch(Event{Widget: "nope", Action: "x"}); err == nil {
		t.Error("unknown widget should fail")
	}
	if err := d.Dispatch(Event{Widget: "panel", Action: "nope"}); err == nil {
		t.Error("unknown action should fail")
	}
	if err := d.Dispatch(Event{Widget: "panel", Action: "remove-applet", Arg: "ghost"}); err == nil {
		t.Error("removing a missing applet should fail")
	}
	if err := d.Dispatch(Event{Widget: "gnumeric", Action: "set-cell", Arg: "bad"}); err == nil {
		t.Error("malformed set-cell should fail")
	}
	d.Stop()
	if err := d.Dispatch(Event{Widget: "panel", Action: "open-main-menu"}); err == nil {
		t.Error("dispatch while stopped should fail")
	}
}

func TestNamedEIBugs(t *testing.T) {
	t.Run("tasklist", func(t *testing.T) {
		d := newDesktop(t, faultinject.NewSet(MechTasklistTab))
		err := d.Dispatch(Event{Widget: "panel", Action: "click-tasklist-tab"})
		fe := wantFailure(t, err, MechTasklistTab)
		if fe.Symptom != taxonomy.SymptomCrash {
			t.Errorf("symptom = %v", fe.Symptom)
		}
	})
	t.Run("calendar-prev-year-only", func(t *testing.T) {
		d := newDesktop(t, faultinject.NewSet(MechCalendarPrev))
		// prev in month view is fine.
		dispatch(t, d, "calendar", "prev", "")
		dispatch(t, d, "calendar", "view-year", "")
		err := d.Dispatch(Event{Widget: "calendar", Action: "prev"})
		wantFailure(t, err, MechCalendarPrev)
	})
	t.Run("gnumeric-tab-needs-dialog", func(t *testing.T) {
		d := newDesktop(t, faultinject.NewSet(MechGnumericTab))
		dispatch(t, d, "gnumeric", "press-tab", "") // no dialog open: fine
		dispatch(t, d, "gnumeric", "open-file-summary", "")
		err := d.Dispatch(Event{Widget: "gnumeric", Action: "press-tab"})
		wantFailure(t, err, MechGnumericTab)
	})
	t.Run("gmc-targz", func(t *testing.T) {
		d := newDesktop(t, faultinject.NewSet(MechGmcTarGz))
		dispatch(t, d, "gmc", "open", "notes.txt") // non-archives are fine
		err := d.Dispatch(Event{Widget: "gmc", Action: "open", Arg: "backup.tar.gz"})
		wantFailure(t, err, MechGmcTarGz)
	})
	t.Run("menu-freeze", func(t *testing.T) {
		d := newDesktop(t, faultinject.NewSet(MechMenuFreeze))
		dispatch(t, d, "panel", "click-desktop", "") // no menu open: fine
		dispatch(t, d, "panel", "open-main-menu", "")
		err := d.Dispatch(Event{Widget: "panel", Action: "click-desktop"})
		fe := wantFailure(t, err, MechMenuFreeze)
		if fe.Symptom != taxonomy.SymptomHang {
			t.Errorf("symptom = %v", fe.Symptom)
		}
	})
}

func TestHostnameChange(t *testing.T) {
	d := newDesktop(t, faultinject.NewSet(MechHostnameChange))
	dispatch(t, d, "session", "noop", "")
	d.Env().SetHostname("newname")
	err := d.Dispatch(Event{Widget: "session", Action: "noop"})
	wantFailure(t, err, MechHostnameChange)
	// Time does not fix the condition.
	d.Env().Advance(24 * time.Hour)
	err = d.Dispatch(Event{Widget: "session", Action: "noop"})
	wantFailure(t, err, MechHostnameChange)
	// Logging out and back in (Reset, application-specific recovery) does.
	d.Stop()
	if err := d.Reset(); err != nil {
		t.Fatal(err)
	}
	dispatch(t, d, "session", "noop", "")
}

func TestSoundSocketLeak(t *testing.T) {
	d := newDesktop(t, faultinject.NewSet(MechSoundSocketLeak), simenv.WithFDLimit(10))
	var failure error
	for i := 0; i < 20; i++ {
		if err := d.Dispatch(Event{Widget: "session", Action: "play-sound"}); err != nil {
			failure = err
			break
		}
	}
	wantFailure(t, failure, MechSoundSocketLeak)
	// The leaked sockets are application state: snapshot + restore re-holds
	// them and the condition persists.
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	d.Env().ReclaimOwner(Owner)
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	err = d.Dispatch(Event{Widget: "session", Action: "play-sound"})
	wantFailure(t, err, MechSoundSocketLeak)
}

func TestIllegalOwner(t *testing.T) {
	d := newDesktop(t, faultinject.NewSet(MechIllegalOwner))
	disk := d.Env().Disk()
	if err := disk.Append("/home/u/ok.txt", "u", 5); err != nil {
		t.Fatal(err)
	}
	dispatch(t, d, "gmc", "properties", "/home/u/ok.txt")
	if err := disk.Append("/home/u/bad.txt", "u", 5); err != nil {
		t.Fatal(err)
	}
	if err := disk.SetIllegalOwner("/home/u/bad.txt", true); err != nil {
		t.Fatal(err)
	}
	err := d.Dispatch(Event{Widget: "gmc", Action: "properties", Arg: "/home/u/bad.txt"})
	wantFailure(t, err, MechIllegalOwner)
}

func TestRaces(t *testing.T) {
	races := []struct {
		mech   string
		widget string
		action string
	}{
		{MechUnknownTransient, "session", "mystery-op"},
		{MechViewerRace, "gmc", "view-and-edit-properties"},
		{MechAppletRace, "panel", "applet-action-during-removal"},
	}
	for _, r := range races {
		t.Run(r.mech, func(t *testing.T) {
			d := newDesktop(t, faultinject.NewSet(r.mech))
			d.Env().Sched().Force(r.mech, 0)
			err := d.Dispatch(Event{Widget: r.widget, Action: r.action, Arg: "x"})
			wantFailure(t, err, r.mech)
			// The winning interleaving survives.
			d2 := newDesktop(t, faultinject.NewSet(r.mech))
			d2.Env().Sched().Force(r.mech, 1)
			if err := d2.Dispatch(Event{Widget: r.widget, Action: r.action, Arg: "x"}); err != nil {
				t.Errorf("winning interleaving: %v", err)
			}
		})
	}
}

func TestGenericEIBugs(t *testing.T) {
	tests := []struct {
		key     string
		symptom taxonomy.Symptom
	}{
		{MechStaleWidget, taxonomy.SymptomCrash},
		{MechBadInit, taxonomy.SymptomCrash},
		{MechEventLoopStall, taxonomy.SymptomHang},
		{MechConfigTruncate, taxonomy.SymptomError},
		{MechOffByOne, taxonomy.SymptomCrash},
		{MechTypeMismatch, taxonomy.SymptomError},
		{MechDoubleFree, taxonomy.SymptomCrash},
	}
	for _, tt := range tests {
		d := newDesktop(t, faultinject.NewSet(tt.key))
		action := tt.key[len("desktop/"):]
		err := d.Dispatch(Event{Widget: "bug", Action: action})
		fe := wantFailure(t, err, tt.key)
		if fe.Symptom != tt.symptom {
			t.Errorf("%s symptom = %v, want %v", tt.key, fe.Symptom, tt.symptom)
		}
		// Clean sessions sail through the same paths.
		clean := newDesktop(t, nil)
		dispatch(t, clean, "bug", action, "")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	d := newDesktop(t, nil)
	dispatch(t, d, "panel", "add-applet", "mixer")
	dispatch(t, d, "gnumeric", "set-cell", "B2=7")
	dispatch(t, d, "calendar", "view-year", "")
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d.Stop()
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if d.calendarView != "year" {
		t.Error("calendar view lost")
	}
	if d.cells["B2"] != "7" {
		t.Error("cell lost")
	}
	found := false
	for _, a := range d.applets {
		if a == "mixer" {
			found = true
		}
	}
	if !found {
		t.Error("applet lost")
	}
	if d.events != 3 {
		t.Errorf("event count = %d", d.events)
	}
}

func TestLifecycleGuards(t *testing.T) {
	d := newDesktop(t, nil)
	if err := d.Start(); err == nil {
		t.Error("double start should fail")
	}
	snap, _ := d.Snapshot()
	if err := d.Restore(snap); err == nil {
		t.Error("restore while running should fail")
	}
	if err := d.Reset(); err == nil {
		t.Error("reset while running should fail")
	}
	d.Stop()
	if err := d.Restore([]byte("junk")); err == nil {
		t.Error("bad snapshot should fail")
	}
}

func TestScenariosCoverEveryMechanism(t *testing.T) {
	d := New(simenv.New(1), faultinject.NewSet())
	for _, m := range Mechanisms {
		key := m.Key
		sc, ok := Scenario(d, key)
		if !ok {
			t.Errorf("mechanism %s has no scenario", key)
			continue
		}
		if sc.Mechanism != key || len(sc.Ops) == 0 {
			t.Errorf("scenario %s malformed", key)
		}
	}
	if _, ok := Scenario(d, "desktop/no-such-bug"); ok {
		t.Error("unregistered mechanism desktop/no-such-bug has a scenario")
	}
}

func TestEveryScenarioTriggersItsMechanism(t *testing.T) {
	for _, m := range Mechanisms {
		key := m.Key
		t.Run(key, func(t *testing.T) {
			env := simenv.New(7)
			d := New(env, faultinject.NewSet(key))
			if err := d.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			sc, _ := Scenario(d, key)
			if sc.Stage != nil {
				sc.Stage()
			}
			var failure *faultinject.FailureError
			for _, op := range sc.Ops {
				if err := op.Do(); err != nil {
					fe, ok := faultinject.AsFailure(err)
					if !ok {
						t.Fatalf("op %s returned non-failure error: %v", op.Name, err)
					}
					failure = fe
					break
				}
			}
			if failure == nil {
				t.Fatalf("scenario never triggered %s", key)
			}
			if failure.Mechanism != key {
				t.Errorf("scenario for %s triggered %s", key, failure.Mechanism)
			}
		})
	}
}
