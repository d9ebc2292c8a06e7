package desktop

import (
	"time"

	"faultstudy/internal/component"
)

// Component names of the componentized desktop session.
const (
	// CompSession is the event-dispatch loop every interaction routes
	// through — the root of the tree.
	CompSession = "desktop/session"
	// CompPanel is the panel with its applets and menus.
	CompPanel = "desktop/panel"
	// CompCalendar is the calendar (gnome-pim).
	CompCalendar = "desktop/calendar"
	// CompGnumeric is the spreadsheet.
	CompGnumeric = "desktop/gnumeric"
	// CompGmc is the file manager.
	CompGmc = "desktop/gmc"
	// CompSound is the event-sound utility and its sockets; crash-stopping it
	// releases every leaked socket.
	CompSound = "desktop/sound"
)

// UIBucket is the externalized-store bucket holding UI session state (the
// calendar view) that must survive a widget reboot.
const UIBucket = "desktop/ui"

// Reboot costs on the virtual clock, in simulated milliseconds.
const (
	sessionStartCost  = 7 * time.Millisecond
	panelStartCost    = 3 * time.Millisecond
	calendarStartCost = 2 * time.Millisecond
	gnumericStartCost = 4 * time.Millisecond
	gmcStartCost      = 3 * time.Millisecond
	soundStartCost    = 1 * time.Millisecond
)

// deskComponentFor maps each seeded mechanism to the component its defect
// lives in.
var deskComponentFor = map[string]string{
	MechTasklistTab:      CompPanel,
	MechMenuFreeze:       CompPanel,
	MechAppletRace:       CompPanel,
	MechStaleWidget:      CompPanel,
	MechCalendarPrev:     CompCalendar,
	MechGnumericTab:      CompGnumeric,
	MechBadInit:          CompGnumeric,
	MechDoubleFree:       CompGnumeric,
	MechTypeMismatch:     CompGnumeric,
	MechGmcTarGz:         CompGmc,
	MechIllegalOwner:     CompGmc,
	MechViewerRace:       CompGmc,
	MechOffByOne:         CompGmc,
	MechSoundSocketLeak:  CompSound,
	MechEventLoopStall:   CompSession,
	MechConfigTruncate:   CompSession,
	MechUnknownTransient: CompSession,
	MechHostnameChange:   CompSession,
}

// Componentized is the crash-only decomposition of the desktop: each widget
// is its own component, UI session state (the calendar view) lives in the
// externalized store, and crash-stopping a widget closes its dialogs and
// releases its sockets — rebooting one applet no longer means logging out.
type Componentized struct {
	*component.Process
	desk *Desktop
}

// Componentize wraps a desktop session into its component tree, with the UI
// session state in the Process's store.
func Componentize(d *Desktop) *Componentized {
	c := &Componentized{desk: d, Process: component.NewProcess(d, deskComponentFor, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		d.running = true
	})}
	c.Tree().MustAdd(component.Spec{StartCost: sessionStartCost, Component: component.NewPart(CompSession, component.Hooks{})})
	c.Tree().MustAdd(component.Spec{StartCost: panelStartCost, Deps: []string{CompSession}, Component: component.NewPart(CompPanel, component.Hooks{
		// Crash-stopping the panel releases the pointer grab a frozen menu
		// holds — the microreboot answer to the menu-freeze hang.
		OnKill: func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.menuOpen = false
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: calendarStartCost, Deps: []string{CompSession}, Component: component.NewPart(CompCalendar, component.Hooks{
		OnKill: func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.calendarView = "month"
		},
		// The rebooted calendar rehydrates the user's view from the
		// externalized store: the reboot is invisible to the session.
		OnStart: func() error {
			if view, ok := c.Store().Get(UIBucket, "calendarView"); ok {
				d.mu.Lock()
				d.calendarView = view
				d.mu.Unlock()
			}
			return nil
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: gnumericStartCost, Deps: []string{CompSession}, Component: component.NewPart(CompGnumeric, component.Hooks{
		// A rebooted spreadsheet comes back with its dialogs closed — the
		// poisoned focus chain is gone while the cells (document state)
		// survive in the snapshot-carried state.
		OnKill: func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.dialogOpen = ""
		},
	})})
	c.Tree().MustAdd(component.Spec{StartCost: gmcStartCost, Deps: []string{CompSession}, Component: component.NewPart(CompGmc, component.Hooks{})})
	c.Tree().MustAdd(component.Spec{StartCost: soundStartCost, Deps: []string{CompSession}, Component: component.NewPart(CompSound, component.Hooks{
		// Crash-stopping the sound utility closes every leaked socket.
		OnKill: func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			d.closeSoundFDsLocked()
			d.soundFDWant = 0
		},
	})})
	return c
}

// widgetComponent maps an event's widget to the component it routes through
// (besides the session loop, which everything routes through).
func widgetComponent(ev Event) []string {
	route := []string{CompSession}
	switch ev.Widget {
	case "panel":
		route = append(route, CompPanel)
	case "calendar":
		route = append(route, CompCalendar)
	case "gnumeric":
		route = append(route, CompGnumeric)
	case "gmc":
		route = append(route, CompGmc)
	case "session":
		if ev.Action == "play-sound" {
			route = append(route, CompSound)
		}
	}
	return route
}

// Dispatch routes one user event through the component tree: events whose
// widget is down fail fast with DownError while every other widget stays
// interactive. Calendar view changes are mirrored into the externalized
// store so a rebooted calendar comes back showing the same view.
func (c *Componentized) Dispatch(ev Event) error {
	for _, name := range widgetComponent(ev) {
		if !c.Tree().Running(name) {
			return component.Down(name)
		}
	}
	if err := c.desk.Dispatch(ev); err != nil {
		return err
	}
	if ev.Widget == "calendar" {
		switch ev.Action {
		case "view-year":
			c.Store().Put(UIBucket, "calendarView", "year")
		case "view-month":
			c.Store().Put(UIBucket, "calendarView", "month")
		}
	}
	return nil
}
