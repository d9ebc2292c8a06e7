package desktop

import (
	"strings"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/taxonomy"
)

// Mechanism keys for the seeded GNOME bugs.
const (
	// Named environment-independent bugs (§5.2).
	MechTasklistTab  = "desktop/tasklist-tab"
	MechCalendarPrev = "desktop/calendar-prev"
	MechGnumericTab  = "desktop/gnumeric-tab"
	MechGmcTarGz     = "desktop/gmc-targz"
	MechMenuFreeze   = "desktop/menu-freeze"

	// Template-class environment-independent bugs.
	MechStaleWidget    = "desktop/stale-widget"
	MechBadInit        = "desktop/bad-init"
	MechEventLoopStall = "desktop/event-loop-stall"
	MechConfigTruncate = "desktop/config-truncate"
	MechOffByOne       = "desktop/off-by-one"
	MechTypeMismatch   = "desktop/type-mismatch"
	MechDoubleFree     = "desktop/double-free"

	// Environment-dependent-nontransient bugs.
	MechHostnameChange  = "desktop/hostname-change"
	MechSoundSocketLeak = "desktop/sound-socket-leak"
	MechIllegalOwner    = "desktop/illegal-owner"

	// Environment-dependent-transient bugs.
	MechUnknownTransient = "desktop/unknown-transient"
	MechViewerRace       = "desktop/viewer-race"
	MechAppletRace       = "desktop/applet-race"
)

// Mechanisms is the desktop's seeded-bug catalogue.
var Mechanisms = []faultinject.Mechanism{
	{Key: MechTasklistTab, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "tasklist tab in pager settings kills the pager"},
	{Key: MechCalendarPrev, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "prev in the calendar year view crashes"},
	{Key: MechGnumericTab, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "Tab inside the define-name dialog crashes gnumeric"},
	{Key: MechGmcTarGz, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "double-clicking a tar.gz icon crashes gmc"},
	{Key: MechMenuFreeze, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "dismissing the main menu by clicking the desktop freezes it"},
	{Key: MechStaleWidget, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "destroyed widget pointer dereferenced"},
	{Key: MechBadInit, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "dialog struct field read before initialization"},
	{Key: MechEventLoopStall, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "event loop re-enters a consumed wait"},
	{Key: MechConfigTruncate, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "config value truncated on write"},
	{Key: MechOffByOne, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "item list iterated one past the end"},
	{Key: MechTypeMismatch, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "long vs unsigned long comparison fails a sanity check"},
	{Key: MechDoubleFree, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerWorkloadOnly, Description: "undo path frees a list node twice"},
	{Key: MechHostnameChange, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerHostConfig, Description: "hostname changed under a running session"},
	{Key: MechSoundSocketLeak, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerFDExhaustion, Description: "sound utilities leak sockets until descriptors run out"},
	{Key: MechIllegalOwner, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerHostConfig, Description: "file with an illegal owner field crashes the property dialog"},
	{Key: MechUnknownTransient, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerRace, Description: "unexplained failure that works on retry"},
	{Key: MechViewerRace, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerRace, Description: "image viewer races the property editor"},
	{Key: MechAppletRace, App: taxonomy.AppGnome, Trigger: taxonomy.TriggerRace, Description: "applet action races its removal"},
}

// Scenario returns the executable reproduction of the seeded GNOME bug named
// by key, or false for a key with no scenario.
func Scenario(d *Desktop, key string) (faultinject.Scenario, bool) {
	env := d.Env()
	ev := func(widget, action, arg string) faultinject.Op {
		name := widget + "." + action
		if arg != "" {
			name += "(" + arg + ")"
		}
		return faultinject.Op{Name: name, Do: func() error {
			return d.Dispatch(Event{Widget: widget, Action: action, Arg: arg})
		}}
	}

	var sc faultinject.Scenario
	switch key {
	case MechTasklistTab:
		sc = faultinject.Scenario{
			Description: "the user opens pager settings and clicks the tasklist tab",
			Ops:         []faultinject.Op{ev("panel", "click-tasklist-tab", "")},
		}
	case MechCalendarPrev:
		sc = faultinject.Scenario{
			Description: "the user switches to year view and clicks prev",
			Ops: []faultinject.Op{
				ev("calendar", "view-year", ""),
				ev("calendar", "prev", ""),
			},
		}
	case MechGnumericTab:
		sc = faultinject.Scenario{
			Description: "the user presses Tab in the define-name dialog",
			Ops: []faultinject.Op{
				ev("gnumeric", "open-define-name", ""),
				ev("gnumeric", "press-tab", ""),
			},
		}
	case MechGmcTarGz:
		sc = faultinject.Scenario{
			Description: "the user double-clicks a tar.gz icon on the desktop",
			Ops:         []faultinject.Op{ev("gmc", "open", "backup.tar.gz")},
		}
	case MechMenuFreeze:
		sc = faultinject.Scenario{
			Description: "the user opens the main menu and clicks the desktop",
			Ops: []faultinject.Op{
				ev("panel", "open-main-menu", ""),
				ev("panel", "click-desktop", ""),
			},
		}
	case MechHostnameChange:
		sc = faultinject.Scenario{
			Description: "the hostname changes while the session runs",
			Stage:       func() { env.SetHostname("renamed-host") },
			Ops:         []faultinject.Op{ev("session", "noop", "")},
		}
	case MechSoundSocketLeak:
		sc = faultinject.Scenario{
			Description: "event sounds leak sockets until descriptors run out",
			Stage:       func() { env.FDs().SetLimit(20) },
			Ops: func() []faultinject.Op {
				var ops []faultinject.Op
				for i := 0; i < 30; i++ {
					ops = append(ops, ev("session", "play-sound", ""))
				}
				return ops
			}(),
		}
	case MechIllegalOwner:
		sc = faultinject.Scenario{
			Description: "a file's owner field holds an illegal value",
			Stage: func() {
				_ = env.Disk().Append("/home/user/broken.txt", "user", 10) //faultlint:ignore envcheck staging the corrupt file is the point
				_ = env.Disk().SetIllegalOwner("/home/user/broken.txt", true)
			},
			Ops: []faultinject.Op{ev("gmc", "properties", "/home/user/broken.txt")},
		}
	case MechUnknownTransient:
		sc = faultinject.Scenario{
			Description: "an unexplained failure that works on retry",
			Stage:       func() { env.Sched().Force(MechUnknownTransient, 0) },
			Ops:         []faultinject.Op{ev("session", "mystery-op", "")},
		}
	case MechViewerRace:
		sc = faultinject.Scenario{
			Description: "the viewer and property editor open the same file together",
			Stage:       func() { env.Sched().Force(MechViewerRace, 0) },
			Ops:         []faultinject.Op{ev("gmc", "view-and-edit-properties", "photo.png")},
		}
	case MechAppletRace:
		sc = faultinject.Scenario{
			Description: "an applet is removed at the moment it is asked to act",
			Stage:       func() { env.Sched().Force(MechAppletRace, 0) },
			Ops:         []faultinject.Op{ev("panel", "applet-action-during-removal", "clock")},
		}
	case MechStaleWidget, MechBadInit, MechEventLoopStall, MechConfigTruncate,
		MechOffByOne, MechTypeMismatch, MechDoubleFree:
		defect := strings.TrimPrefix(key, "desktop/")
		sc = faultinject.Scenario{
			Description: "an interaction exercises the " + defect + " defect path",
			Ops:         []faultinject.Op{ev("bug", defect, "")},
		}
	default:
		return faultinject.Scenario{}, false
	}
	sc.Mechanism = key
	return sc, true
}
