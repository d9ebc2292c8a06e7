package cache

import (
	"fmt"

	"faultstudy/internal/component"
)

// Serving-tier category names for the cache operation mix, re-expressed as
// cumulative thresholds over a uniform draw so the open-loop schedule can
// carry the operation choice as a single float.
const (
	ServeGetHit  = "get-hit"
	ServeGetMiss = "get-miss"
	ServeSet     = "set"
	ServeDel     = "del"
	ServeStats   = "stats"
)

// ServeWarm brings the daemon to steady state before traffic by priming a
// small working set, so the hit path dominates the open-loop mix the way it
// does on a warmed production cache.
func (c *Componentized) ServeWarm() error {
	for i := 0; i < 8; i++ {
		if err := c.srv.Set(fmt.Sprintf("warm%d", i), "v"); err != nil {
			return err
		}
	}
	return nil
}

// ServeCategory maps a uniform draw u in [0, 1) onto the read-heavy
// 60/15/15/5/5 cache mix.
func (c *Componentized) ServeCategory(u float64) string {
	switch {
	case u < 0.60:
		return ServeGetHit
	case u < 0.75:
		return ServeGetMiss
	case u < 0.90:
		return ServeSet
	case u < 0.95:
		return ServeDel
	default:
		return ServeStats
	}
}

// ServeArrival serves one open-loop arrival: u picks the operation
// (ServeCategory), seq individualizes keys, and user names the session
// whose externalized hot-key counter the operation advances.
func (c *Componentized) ServeArrival(seq, user int, u float64) error {
	category := c.ServeCategory(u)
	for _, name := range routeOf(category) {
		if !c.Tree().Running(name) {
			return component.Down(name)
		}
	}
	var err error
	switch category {
	case ServeGetHit:
		_, err = c.srv.Get(fmt.Sprintf("warm%d", seq%8))
	case ServeGetMiss:
		_, err = c.srv.Get(fmt.Sprintf("cold%d", seq))
	case ServeSet:
		err = c.srv.Set(fmt.Sprintf("hot%d", seq%16), "v")
	case ServeDel:
		err = c.srv.Del(fmt.Sprintf("hot%d", seq%16))
	default:
		_, err = c.srv.Stats()
	}
	if err == nil {
		c.Store().Incr(HotKeyBucket, fmt.Sprintf("u%05d", user))
	}
	return err
}

// routeOf lists the components an operation routes through. The persist
// component is deliberately absent: a down persist degrades to unpersisted
// serving instead of failing the operation.
func routeOf(category string) []string {
	route := []string{CompListener, CompCore}
	if category == ServeGetMiss {
		// Miss fills consult the replication peer through the listener; the
		// sweeper owns the expiry bookkeeping the delete path touches.
		route = append(route, CompSweeper)
	}
	if category == ServeDel {
		route = append(route, CompSweeper)
	}
	return route
}
