package sqldb

import "fmt"

// Serving-tier category names for the SQL operation mix.
const (
	ServeSelect = "select"
	ServeInsert = "insert"
	ServeCount  = "count"
	ServeUpdate = "update"
)

// ServeTable is the table the serving tier reads and writes. ServeWarm
// creates it; the restart rung re-runs ServeWarm after Reset, the way a
// process restart re-runs a database's init script.
const ServeTable = "serve"

// ServeWarm brings the database to steady state before traffic: a warmup
// session creates the serve table and seeds enough rows that the first
// selects have something to read.
func (c *Componentized) ServeWarm() error {
	if err := c.Connect("warmup", "10.0.0.1"); err != nil {
		return err
	}
	if _, err := c.Exec("warmup", "CREATE TABLE "+ServeTable+" (k INT, payload TEXT)"); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Exec("warmup", fmt.Sprintf("INSERT INTO %s VALUES (%d, 'seed%d')", ServeTable, i, i)); err != nil {
			return err
		}
	}
	return nil
}

// ServeCategory maps a uniform draw u in [0, 1) onto the 55/20/15/10
// select/insert/count/update mix.
func (c *Componentized) ServeCategory(u float64) string {
	switch {
	case u < 0.55:
		return ServeSelect
	case u < 0.75:
		return ServeInsert
	case u < 0.90:
		return ServeCount
	default:
		return ServeUpdate
	}
}

// ServeArrival serves one open-loop arrival: u picks the statement kind
// (ServeCategory), seq individualizes keys, and user names the client
// session. Sessions connect lazily and survive in the externalized store,
// so a rebooted listener does not force every user back through Connect.
func (c *Componentized) ServeArrival(seq, user int, u float64) error {
	session := fmt.Sprintf("u%05d", user)
	if !c.SessionAlive(session) {
		if err := c.Connect(session, fmt.Sprintf("10.1.%d.%d", user/256, user%256)); err != nil {
			return err
		}
	}
	var stmt string
	switch c.ServeCategory(u) {
	case ServeSelect:
		stmt = fmt.Sprintf("SELECT * FROM %s WHERE k <= %d ORDER BY k LIMIT 10", ServeTable, seq%64)
	case ServeInsert:
		stmt = fmt.Sprintf("INSERT INTO %s VALUES (%d, 'p%d')", ServeTable, 8+seq, seq)
	case ServeCount:
		stmt = "SELECT COUNT(*) FROM " + ServeTable
	default:
		stmt = fmt.Sprintf("UPDATE %s SET payload = 'u%d' WHERE k = %d", ServeTable, seq, seq%8)
	}
	_, err := c.Exec(session, stmt)
	return err
}
