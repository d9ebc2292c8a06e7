package desktop

import (
	"errors"
	"testing"

	"faultstudy/internal/component"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

func newComponentized(t *testing.T, mechs ...string) *Componentized {
	t.Helper()
	env := simenv.New(1)
	c := Componentize(New(env, faultinject.NewSet(mechs...)))
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

// TestCalendarViewSurvivesWidgetReboot verifies UI-state externalization:
// the rebooted calendar rehydrates the user's view from the store.
func TestCalendarViewSurvivesWidgetReboot(t *testing.T) {
	c := newComponentized(t)
	if err := c.Dispatch(Event{Widget: "calendar", Action: "view-year"}); err != nil {
		t.Fatalf("view-year: %v", err)
	}
	if err := c.Tree().Reboot(CompCalendar, false, nil); err != nil {
		t.Fatalf("reboot calendar: %v", err)
	}
	c.desk.mu.Lock()
	view := c.desk.calendarView
	c.desk.mu.Unlock()
	if view != "year" {
		t.Fatalf("calendar view after reboot = %q, want year", view)
	}
}

// TestWidgetRebootClosesPoisonedDialog verifies the microreboot win on the
// gnumeric tab crash: rebooting the spreadsheet closes the dialog with the
// poisoned focus chain while the cells survive, so the retried interaction
// succeeds.
func TestWidgetRebootClosesPoisonedDialog(t *testing.T) {
	c := newComponentized(t, MechGnumericTab)
	if err := c.Dispatch(Event{Widget: "gnumeric", Action: "set-cell", Arg: "A1=42"}); err != nil {
		t.Fatalf("set-cell: %v", err)
	}
	if err := c.Dispatch(Event{Widget: "gnumeric", Action: "open-define-name"}); err != nil {
		t.Fatalf("open dialog: %v", err)
	}
	err := c.Dispatch(Event{Widget: "gnumeric", Action: "press-tab"})
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechGnumericTab {
		t.Fatalf("press-tab: %v", err)
	}
	c.ContainCrash()
	if err := c.Tree().Reboot(CompGnumeric, false, nil); err != nil {
		t.Fatalf("reboot gnumeric: %v", err)
	}
	// The dialog is gone, the document is not, and Tab is harmless now.
	if err := c.Dispatch(Event{Widget: "gnumeric", Action: "press-tab"}); err != nil {
		t.Fatalf("press-tab after reboot: %v", err)
	}
	if err := c.Dispatch(Event{Widget: "gnumeric", Action: "get-cell", Arg: "A1"}); err != nil {
		t.Fatalf("cells lost in widget reboot: %v", err)
	}
}

// TestSoundRebootReleasesLeakedSockets verifies that crash-stopping the
// sound part frees the leaked descriptors.
func TestSoundRebootReleasesLeakedSockets(t *testing.T) {
	c := newComponentized(t, MechSoundSocketLeak)
	for i := 0; i < 8; i++ {
		if err := c.Dispatch(Event{Widget: "session", Action: "play-sound"}); err != nil {
			t.Fatalf("play-sound %d: %v", i, err)
		}
	}
	c.desk.mu.Lock()
	leaked := len(c.desk.soundFDs)
	c.desk.mu.Unlock()
	if leaked != 8 {
		t.Fatalf("leaked sockets = %d, want 8", leaked)
	}
	if err := c.Tree().Reboot(CompSound, false, nil); err != nil {
		t.Fatalf("reboot sound: %v", err)
	}
	c.desk.mu.Lock()
	leaked, want := len(c.desk.soundFDs), c.desk.soundFDWant
	c.desk.mu.Unlock()
	if leaked != 0 || want != 0 {
		t.Fatalf("sound reboot kept leaks: fds=%d want=%d", leaked, want)
	}
}

// TestWidgetOutageLeavesSiblingsInteractive verifies DownError routing: a
// dead widget fails fast while every other widget keeps dispatching.
func TestWidgetOutageLeavesSiblingsInteractive(t *testing.T) {
	c := newComponentized(t)
	if err := c.Tree().Kill(CompGmc); err != nil {
		t.Fatalf("kill gmc: %v", err)
	}
	var de *component.DownError
	if err := c.Dispatch(Event{Widget: "gmc", Action: "open", Arg: "notes.txt"}); !errors.As(err, &de) || de.Component != CompGmc {
		t.Fatalf("gmc event with gmc down: %v", err)
	}
	if err := c.Dispatch(Event{Widget: "panel", Action: "open-main-menu"}); err != nil {
		t.Fatalf("panel during gmc outage: %v", err)
	}
	if err := c.Dispatch(Event{Widget: "calendar", Action: "next"}); err != nil {
		t.Fatalf("calendar during gmc outage: %v", err)
	}
	if err := c.Tree().Reboot(CompGmc, false, nil); err != nil {
		t.Fatalf("restart gmc: %v", err)
	}
	if err := c.Dispatch(Event{Widget: "gmc", Action: "open", Arg: "notes.txt"}); err != nil {
		t.Fatalf("gmc after restart: %v", err)
	}
}

// TestPanelRebootReleasesFrozenMenuGrab verifies the microreboot win on the
// menu-freeze hang: the rebooted panel no longer holds the pointer grab.
func TestPanelRebootReleasesFrozenMenuGrab(t *testing.T) {
	c := newComponentized(t, MechMenuFreeze)
	if err := c.Dispatch(Event{Widget: "panel", Action: "open-main-menu"}); err != nil {
		t.Fatalf("open menu: %v", err)
	}
	err := c.Dispatch(Event{Widget: "panel", Action: "click-desktop"})
	fe, ok := faultinject.AsFailure(err)
	if !ok || fe.Mechanism != MechMenuFreeze {
		t.Fatalf("click-desktop: %v", err)
	}
	c.ContainCrash()
	if err := c.Tree().Reboot(CompPanel, false, nil); err != nil {
		t.Fatalf("reboot panel: %v", err)
	}
	// The grab is released with the menu closed; the same click is harmless.
	if err := c.Dispatch(Event{Widget: "panel", Action: "click-desktop"}); err != nil {
		t.Fatalf("click after panel reboot: %v", err)
	}
}
