// Package workload generates realistic operation streams for the three
// simulated applications: HTTP request mixes for the web server, SQL
// statement streams for the database, and interaction streams for the
// desktop. The generators are seeded and deterministic; the benchmarks and
// the rejuvenation ablation use them to drive healthy and fault-laden
// instances at scale.
package workload

import (
	"fmt"
	"math/rand"

	"faultstudy/internal/apps/desktop"
	"faultstudy/internal/apps/httpd"
)

// Hook observes workload generation, one call per generated item: stream is
// the generator ("http", "sql", "desktop") and category the item's kind
// within it ("static", "insert", "set-cell", ...). A nil Hook is legal
// everywhere and costs one branch — the observability layer's workload-mix
// metrics attach here without the generators knowing about metrics.
type Hook interface {
	// Generated reports one generated workload item.
	Generated(stream, category string)
}

// emit notifies a hook when one is attached.
func emit(h Hook, stream, category string) {
	if h != nil {
		h.Generated(stream, category)
	}
}

// HTTPMix weights the request categories of the web workload.
type HTTPMix struct {
	// Static is the weight of plain document requests.
	Static int
	// Listing is the weight of directory listings.
	Listing int
	// CGI is the weight of CGI requests.
	CGI int
	// Proxy is the weight of proxied requests.
	Proxy int
	// NotFound is the weight of requests for missing documents.
	NotFound int
}

// DefaultHTTPMix approximates a 1999 site: mostly static pages with a little
// of everything else.
func DefaultHTTPMix() HTTPMix {
	return HTTPMix{Static: 70, Listing: 10, CGI: 10, Proxy: 5, NotFound: 5}
}

func (m HTTPMix) total() int { return m.Static + m.Listing + m.CGI + m.Proxy + m.NotFound }

// HTTPRequests generates n requests with the given mix. Each request is
// reported to h (when non-nil) under stream "http" with its mix category;
// the stream does not depend on h.
func HTTPRequests(seed int64, mix HTTPMix, n int, h Hook) []httpd.Request {
	if mix.total() == 0 {
		mix = DefaultHTTPMix()
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]httpd.Request, 0, n)
	for i := 0; i < n; i++ {
		r := rng.Intn(mix.total())
		switch {
		case r < mix.Static:
			reqs = append(reqs, httpd.Request{Method: "GET", Path: "/index.html"})
			emit(h, "http", "static")
		case r < mix.Static+mix.Listing:
			reqs = append(reqs, httpd.Request{Method: "GET", Path: "/pub/"})
			emit(h, "http", "listing")
		case r < mix.Static+mix.Listing+mix.CGI:
			reqs = append(reqs, httpd.Request{Method: "GET", Path: "/cgi-bin/env"})
			emit(h, "http", "cgi")
		case r < mix.Static+mix.Listing+mix.CGI+mix.Proxy:
			reqs = append(reqs, httpd.Request{Method: "GET", Path: "/proxy/page"})
			emit(h, "http", "proxy")
		default:
			reqs = append(reqs, httpd.Request{Method: "GET", Path: fmt.Sprintf("/missing-%d", i)})
			emit(h, "http", "not-found")
		}
	}
	return reqs
}

// SQLStatements generates a CREATE/INSERT/SELECT/UPDATE/DELETE stream over a
// single table. The first statements create and index the table; the rest
// are drawn from the mix. All statements are valid against the schema. Each
// statement is reported to h (when non-nil) under stream "sql" with its
// statement kind; the stream does not depend on h.
func SQLStatements(seed int64, n int, h Hook) []string {
	rng := rand.New(rand.NewSource(seed))
	stmts := []string{
		"CREATE TABLE load (k INT, payload TEXT)",
		"CREATE INDEX load_k ON load (k)",
	}
	emit(h, "sql", "create")
	emit(h, "sql", "create")
	inserted := 0
	for len(stmts) < n {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // 40% inserts
			inserted++
			stmts = append(stmts, fmt.Sprintf("INSERT INTO load VALUES (%d, 'p%d')", inserted, inserted))
			emit(h, "sql", "insert")
		case 4, 5, 6: // 30% selects
			stmts = append(stmts, fmt.Sprintf("SELECT * FROM load WHERE k <= %d ORDER BY k LIMIT 10", rng.Intn(inserted+1)))
			emit(h, "sql", "select")
		case 7: // counts
			stmts = append(stmts, "SELECT COUNT(*) FROM load")
			emit(h, "sql", "count")
		case 8: // updates
			stmts = append(stmts, fmt.Sprintf("UPDATE load SET payload = 'u' WHERE k = %d", rng.Intn(inserted+1)))
			emit(h, "sql", "update")
		default: // deletes
			stmts = append(stmts, fmt.Sprintf("DELETE FROM load WHERE k = %d", rng.Intn(inserted+1)))
			emit(h, "sql", "delete")
		}
	}
	return stmts
}

// DesktopEvents generates a stream of benign desktop interactions. Each
// event is reported to h (when non-nil) under stream "desktop" with its
// action name; the stream does not depend on h.
func DesktopEvents(seed int64, n int, h Hook) []desktop.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]desktop.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev desktop.Event
		switch rng.Intn(6) {
		case 0:
			ev = desktop.Event{Widget: "calendar", Action: "next"}
		case 1:
			ev = desktop.Event{Widget: "gnumeric", Action: "set-cell",
				Arg: fmt.Sprintf("A%d=%d", i%100, rng.Intn(1000))}
		case 2:
			ev = desktop.Event{Widget: "gmc", Action: "open", Arg: "notes.txt"}
		case 3:
			ev = desktop.Event{Widget: "panel", Action: "open-main-menu"}
		case 4:
			ev = desktop.Event{Widget: "panel", Action: "click-desktop"}
		default:
			ev = desktop.Event{Widget: "session", Action: "play-sound"}
		}
		evs = append(evs, ev)
		emit(h, "desktop", ev.Action)
	}
	return evs
}
