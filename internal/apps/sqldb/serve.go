package sqldb

import "strconv"

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
		n := strconv.Itoa(i)
		if _, err := c.Exec("warmup", "INSERT INTO "+ServeTable+" VALUES ("+n+", 'seed"+n+"')"); err != nil {
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
	session := sessionName(user)
	if !c.SessionAlive(session) {
		addr := "10.1." + strconv.Itoa(user/256) + "." + strconv.Itoa(user%256)
		if err := c.Connect(session, addr); err != nil {
			return err
		}
	}
	_, err := c.Exec(session, serveStatement(c.ServeCategory(u), seq))
	return err
}

// sessionName names a serving user's session: "u" and the user number,
// zero-padded to five digits. User numbers are non-negative.
func sessionName(user int) string {
	var buf [24]byte
	return string(appendPadded(append(buf[:0], 'u'), user, 5))
}

// serveStatement is the SQL text of the arrival numbered seq in the given
// serving category.
func serveStatement(category string, seq int) string {
	var buf [96]byte
	b := buf[:0]
	switch category {
	case ServeSelect:
		b = append(b, "SELECT * FROM "+ServeTable+" WHERE k <= "...)
		b = strconv.AppendInt(b, int64(seq%64), 10)
		b = append(b, " ORDER BY k LIMIT 10"...)
	case ServeInsert:
		b = append(b, "INSERT INTO "+ServeTable+" VALUES ("...)
		b = strconv.AppendInt(b, int64(8+seq), 10)
		b = append(b, ", 'p"...)
		b = strconv.AppendInt(b, int64(seq), 10)
		b = append(b, "')"...)
	case ServeCount:
		return "SELECT COUNT(*) FROM " + ServeTable
	default:
		b = append(b, "UPDATE "+ServeTable+" SET payload = 'u"...)
		b = strconv.AppendInt(b, int64(seq), 10)
		b = append(b, "' WHERE k = "...)
		b = strconv.AppendInt(b, int64(seq%8), 10)
	}
	return string(b)
}

// appendPadded appends the decimal form of the non-negative n, zero-padded
// to at least width digits.
func appendPadded(b []byte, n, width int) []byte {
	digits := 1
	for v := n; v >= 10; v /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}
