// Package desktop is a simulated desktop environment in the mold of GNOME
// 1.0 — a panel with applets, a calendar (gnome-pim), a spreadsheet
// (gnumeric), and a file manager (gmc) behind a single event-dispatch loop —
// seeded with the bugs the study catalogued for GNOME (§5.2): the
// tasklist-tab pager crash, the calendar prev-button crash, the gnumeric
// tab-in-dialog crash, the gmc tar.gz crash, the menu freeze, the
// hostname-change and illegal-owner-field conditions, the sound-utility
// socket leak, and the three races.
package desktop

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
	"faultstudy/internal/snapwire"
	"faultstudy/internal/taxonomy"
)

// Owner is the environment owner tag for all desktop resources.
const Owner = "gnome"

// Event is one user interaction dispatched through the desktop's event loop.
type Event struct {
	// Widget targets a component: panel, calendar, gnumeric, gmc, session,
	// or bug (the template-defect paths).
	Widget string
	// Action is the interaction.
	Action string
	// Arg carries the action argument (file name, applet name, cell ref).
	Arg string
}

// Desktop is the simulated desktop session.
type Desktop struct {
	env    *simenv.Env
	faults *faultinject.Set

	mu       sync.Mutex
	running  bool
	degraded bool
	soundFDs []simenv.FD

	// Logical state (travels through Snapshot/Restore).
	startHostname string
	applets       []string
	calendarView  string // "month" or "year"
	dialogOpen    string // gnumeric dialog name or ""
	menuOpen      bool
	cells         map[string]string
	soundFDWant   int
	events        int64
}

// New builds a desktop session over the environment with the given active
// bug set.
func New(env *simenv.Env, faults *faultinject.Set) *Desktop {
	return &Desktop{
		env:    env,
		faults: faults,
	}
}

// Name returns the environment owner tag.
func (d *Desktop) Name() string { return Owner }

// Env returns the session's environment.
func (d *Desktop) Env() *simenv.Env { return d.env }

// SetDegraded toggles degraded mode: the session keeps navigating and
// rendering but silently drops effects that consume environment resources
// (sound sockets), so a session out of descriptors stays interactive.
func (d *Desktop) SetDegraded(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.degraded = on
}

// Running reports whether the session is up.
func (d *Desktop) Running() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.running
}

// Start opens the session: it records the hostname its X authority entries
// were generated for and restores any state-mandated sound sockets.
func (d *Desktop) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return errors.New("desktop: already running")
	}
	if d.startHostname == "" {
		d.startHostname = d.env.Hostname()
	}
	if d.applets == nil {
		d.applets = []string{"clock", "pager", "tasklist"}
	}
	if d.cells == nil {
		d.cells = make(map[string]string)
	}
	if d.calendarView == "" {
		d.calendarView = "month"
	}
	for len(d.soundFDs) < d.soundFDWant {
		fd, err := d.env.FDs().Open(Owner)
		if err != nil {
			d.closeSoundFDsLocked()
			return faultinject.FailCause(MechSoundSocketLeak, taxonomy.SymptomError,
				"cannot reopen held sound sockets", err)
		}
		d.soundFDs = append(d.soundFDs, fd)
	}
	d.running = true
	return nil
}

func (d *Desktop) closeSoundFDsLocked() {
	for _, fd := range d.soundFDs {
		_ = d.env.FDs().Close(fd)
	}
	d.soundFDs = nil
}

// Stop closes the session and releases its environment resources.
func (d *Desktop) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running {
		return
	}
	d.running = false
	d.closeSoundFDsLocked()
}

// crash marks the session dead (d.mu held).
func (d *Desktop) crash() { d.running = false }

// Dispatch routes one user event through the desktop. Failures from active
// seeded bugs are *faultinject.FailureError values.
func (d *Desktop) Dispatch(ev Event) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.running {
		return errors.New("desktop: not running")
	}
	d.events++

	// Every X round-trip validates against the session's display authority,
	// which embeds the start-time hostname.
	if d.faults.Enabled(MechHostnameChange) && d.env.Hostname() != d.startHostname {
		return faultinject.Fail(MechHostnameChange, taxonomy.SymptomError,
			fmt.Sprintf("display authority for %q rejected on host %q",
				d.startHostname, d.env.Hostname()))
	}
	if d.faults.Enabled(MechUnknownTransient) && ev.Action == "mystery-op" {
		if d.env.Sched().RaceFires(MechUnknownTransient, 3) {
			d.crash()
			return faultinject.Fail(MechUnknownTransient, taxonomy.SymptomCrash,
				"unexplained failure; the same operation works on retry")
		}
		return nil
	}

	switch ev.Widget {
	case "panel":
		return d.panelEvent(ev)
	case "calendar":
		return d.calendarEvent(ev)
	case "gnumeric":
		return d.gnumericEvent(ev)
	case "gmc":
		return d.gmcEvent(ev)
	case "session":
		return d.sessionEvent(ev)
	case "bug":
		return d.bugEvent(ev)
	default:
		return fmt.Errorf("desktop: unknown widget %q", ev.Widget)
	}
}

func (d *Desktop) panelEvent(ev Event) error {
	switch ev.Action {
	case "click-tasklist-tab":
		if d.faults.Enabled(MechTasklistTab) {
			d.crash()
			return faultinject.Fail(MechTasklistTab, taxonomy.SymptomCrash,
				"pager settings tab callback dereferenced a NULL applet")
		}
		return nil
	case "open-main-menu":
		d.menuOpen = true
		return nil
	case "click-desktop":
		if d.menuOpen && d.faults.Enabled(MechMenuFreeze) {
			d.crash()
			return faultinject.Fail(MechMenuFreeze, taxonomy.SymptomHang,
				"pointer grab never released; desktop frozen")
		}
		d.menuOpen = false
		return nil
	case "add-applet":
		d.applets = append(d.applets, ev.Arg)
		return nil
	case "remove-applet":
		for i, a := range d.applets {
			if a == ev.Arg {
				d.applets = append(d.applets[:i], d.applets[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("desktop: no applet %q", ev.Arg)
	case "applet-action-during-removal":
		if d.faults.Enabled(MechAppletRace) && d.env.Sched().RaceFires(MechAppletRace, 3) {
			d.crash()
			return faultinject.Fail(MechAppletRace, taxonomy.SymptomCrash,
				"applet acted after its removal won the race")
		}
		return nil
	default:
		return fmt.Errorf("desktop: unknown panel action %q", ev.Action)
	}
}

func (d *Desktop) calendarEvent(ev Event) error {
	switch ev.Action {
	case "view-year":
		d.calendarView = "year"
		return nil
	case "view-month":
		d.calendarView = "month"
		return nil
	case "prev":
		if d.calendarView == "year" && d.faults.Enabled(MechCalendarPrev) {
			d.crash()
			return faultinject.Fail(MechCalendarPrev, taxonomy.SymptomCrash,
				"prev handler assigned the shadowing local, then dereferenced the global")
		}
		return nil
	case "next":
		return nil
	default:
		return fmt.Errorf("desktop: unknown calendar action %q", ev.Action)
	}
}

func (d *Desktop) gnumericEvent(ev Event) error {
	switch ev.Action {
	case "open-define-name", "open-file-summary":
		d.dialogOpen = ev.Action
		return nil
	case "close-dialog":
		d.dialogOpen = ""
		return nil
	case "press-tab":
		if d.dialogOpen != "" && d.faults.Enabled(MechGnumericTab) {
			d.crash()
			return faultinject.Fail(MechGnumericTab, taxonomy.SymptomCrash,
				"focus chain initialized to a bogus widget; Tab walked into it")
		}
		return nil
	case "set-cell":
		ref, val, ok := strings.Cut(ev.Arg, "=")
		if !ok {
			return fmt.Errorf("desktop: set-cell wants REF=VALUE, got %q", ev.Arg)
		}
		d.cells[ref] = val
		return nil
	case "get-cell":
		if _, ok := d.cells[ev.Arg]; !ok {
			return fmt.Errorf("desktop: empty cell %q", ev.Arg)
		}
		return nil
	default:
		return fmt.Errorf("desktop: unknown gnumeric action %q", ev.Action)
	}
}

func (d *Desktop) gmcEvent(ev Event) error {
	switch ev.Action {
	case "open":
		if strings.HasSuffix(ev.Arg, ".tar.gz") && d.faults.Enabled(MechGmcTarGz) {
			d.crash()
			return faultinject.Fail(MechGmcTarGz, taxonomy.SymptomCrash,
				"archive size declared long instead of unsigned long")
		}
		return nil
	case "properties":
		if d.faults.Enabled(MechIllegalOwner) {
			bad, err := d.env.Disk().IllegalOwner(ev.Arg)
			if err == nil && bad {
				d.crash()
				return faultinject.Fail(MechIllegalOwner, taxonomy.SymptomCrash,
					"owner field holds an illegal value; uid lookup crashed")
			}
		}
		return nil
	case "view-and-edit-properties":
		if d.faults.Enabled(MechViewerRace) && d.env.Sched().RaceFires(MechViewerRace, 3) {
			d.crash()
			return faultinject.Fail(MechViewerRace, taxonomy.SymptomCrash,
				"image viewer and property editor raced on the same file")
		}
		return nil
	default:
		return fmt.Errorf("desktop: unknown gmc action %q", ev.Action)
	}
}

func (d *Desktop) sessionEvent(ev Event) error {
	switch ev.Action {
	case "play-sound":
		if d.degraded {
			// Degraded mode: the event succeeds silently without opening a
			// sound socket.
			return nil
		}
		fd, err := d.env.FDs().Open(Owner)
		if err != nil {
			if d.faults.Enabled(MechSoundSocketLeak) {
				return faultinject.FailCause(MechSoundSocketLeak, taxonomy.SymptomError,
					"no descriptors left for the sound socket", err)
			}
			return fmt.Errorf("desktop: sound: %w", err)
		}
		if d.faults.Enabled(MechSoundSocketLeak) {
			// The bug: the sound utility exits without closing its socket.
			d.soundFDs = append(d.soundFDs, fd)
			d.soundFDWant = len(d.soundFDs)
			return nil
		}
		return d.env.FDs().Close(fd)
	case "noop":
		return nil
	default:
		return fmt.Errorf("desktop: unknown session action %q", ev.Action)
	}
}

func (d *Desktop) bugEvent(ev Event) error {
	key := "desktop/" + ev.Action
	if !d.faults.Enabled(key) {
		return nil // the defect path exists but the defect is not present
	}
	switch key {
	case MechStaleWidget, MechBadInit, MechOffByOne, MechDoubleFree:
		d.crash()
		return faultinject.Fail(key, taxonomy.SymptomCrash,
			"deterministic crash on the defect path")
	case MechEventLoopStall:
		d.crash()
		return faultinject.Fail(key, taxonomy.SymptomHang,
			"event loop waits on a reply it already consumed")
	case MechConfigTruncate, MechTypeMismatch:
		return faultinject.Fail(key, taxonomy.SymptomError,
			"value truncated on the defect path; operation failed")
	default:
		return fmt.Errorf("desktop: unknown bug action %q", ev.Action)
	}
}

// desktopState is the session's logical state as a snapshot carries it.
type desktopState struct {
	StartHostname string
	Applets       []string
	CalendarView  string
	DialogOpen    string
	MenuOpen      bool
	Cells         map[string]string
	SoundFDWant   int
	Events        int64
}

// Snapshot captures the session's complete logical state, including the
// hostname its display authority was generated for and the count of held
// sound sockets.
func (d *Desktop) Snapshot() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := snapwire.NewEncoder(snapwire.TagDesktop)
	e.Str(d.startHostname)
	e.Strs(d.applets)
	e.Str(d.calendarView)
	e.Str(d.dialogOpen)
	e.Bool(d.menuOpen)
	e.StrMap(d.cells)
	e.Int(int64(d.soundFDWant))
	e.Int(d.events)
	return e.Bytes(), nil
}

// decodeState reads a snapshot written by Snapshot. An empty applet list
// decodes to nil, so the restored session's Start installs the default
// applets.
func decodeState(snapshot []byte) (desktopState, error) {
	d := snapwire.NewDecoder(snapwire.TagDesktop, snapshot)
	st := desktopState{
		StartHostname: d.Str(),
		Applets:       d.Strs(),
		CalendarView:  d.Str(),
		DialogOpen:    d.Str(),
		MenuOpen:      d.Bool(),
		Cells:         d.StrMap(),
		SoundFDWant:   int(d.Int()),
		Events:        d.Int(),
	}
	return st, d.Finish()
}

// Restore replaces the session's logical state from a snapshot and restarts
// it. The session must be stopped.
func (d *Desktop) Restore(snapshot []byte) error {
	st, err := decodeState(snapshot)
	if err != nil {
		return fmt.Errorf("desktop: restore: %w", err)
	}
	return d.restoreState(st)
}

// restoreState installs a decoded state and restarts the session.
func (d *Desktop) restoreState(st desktopState) error {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return errors.New("desktop: restore while running")
	}
	// Drop stale socket handles from the failed instance; Start re-acquires
	// the state-mandated count.
	d.closeSoundFDsLocked()
	d.startHostname = st.StartHostname
	d.applets = append([]string(nil), st.Applets...)
	d.calendarView = st.CalendarView
	d.dialogOpen = st.DialogOpen
	d.menuOpen = st.MenuOpen
	d.cells = st.Cells
	d.soundFDWant = st.SoundFDWant
	d.events = st.Events
	d.mu.Unlock()
	return d.Start()
}

// Reset reinitializes the session — logging out and back in. The fresh
// session reads the *current* hostname and holds no sockets: the
// application-specific recovery path. The session must be stopped.
func (d *Desktop) Reset() error {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return errors.New("desktop: reset while running")
	}
	d.closeSoundFDsLocked()
	d.startHostname = ""
	d.applets = nil
	d.calendarView = ""
	d.dialogOpen = ""
	d.menuOpen = false
	d.cells = nil
	d.soundFDWant = 0
	d.events = 0
	d.mu.Unlock()
	return d.Start()
}
