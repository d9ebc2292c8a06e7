package httpd

import "fmt"

// Serving-tier category names for the HTTP operation mix — the same mix
// workload.HTTPRequests generates, re-expressed as cumulative thresholds
// over a uniform draw so the open-loop schedule can carry the category
// choice as a single float.
const (
	ServeStatic   = "static"
	ServeListing  = "listing"
	ServeCGI      = "cgi"
	ServeProxy    = "proxy"
	ServeNotFound = "notfound"
)

// ServeWarm brings the server to steady state before traffic. The web
// server needs no schema or cache priming: a freshly started tree serves
// immediately, so warmup is a no-op kept for the workload.Server contract.
func (c *Componentized) ServeWarm() error { return nil }

// ServeCategory maps a uniform draw u in [0, 1) onto the standard
// 70/10/10/5/5 HTTP mix.
func (c *Componentized) ServeCategory(u float64) string {
	switch {
	case u < 0.70:
		return ServeStatic
	case u < 0.80:
		return ServeListing
	case u < 0.90:
		return ServeCGI
	case u < 0.95:
		return ServeProxy
	default:
		return ServeNotFound
	}
}

// ServeArrival serves one open-loop arrival: u picks the request category
// (ServeCategory), seq individualizes paths, and user names the session
// whose externalized counter the request advances.
func (c *Componentized) ServeArrival(seq, user int, u float64) error {
	var path string
	switch c.ServeCategory(u) {
	case ServeStatic:
		path = "/index.html"
	case ServeListing:
		path = "/pub/"
	case ServeCGI:
		path = "/cgi-bin/env"
	case ServeProxy:
		path = fmt.Sprintf("/proxy/page%d", seq%8)
	default:
		path = fmt.Sprintf("/missing-%d", seq)
	}
	_, err := c.Serve(Request{
		Method:  "GET",
		Path:    path,
		Session: fmt.Sprintf("u%05d", user),
	})
	return err
}
