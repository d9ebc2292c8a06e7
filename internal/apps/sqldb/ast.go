package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a column value: int64 or string.
type Value struct {
	// IsInt selects between I and S.
	IsInt bool
	// I is the integer value.
	I int64
	// S is the string value.
	S string
}

// IntValue builds an integer value.
func IntValue(i int64) Value { return Value{IsInt: true, I: i} }

// StrValue builds a string value.
func StrValue(s string) Value { return Value{S: s} }

// String renders the value.
func (v Value) String() string {
	if v.IsInt {
		return strconv.FormatInt(v.I, 10)
	}
	return v.S
}

// Compare orders two values: integers numerically, strings lexically, and
// integers before strings when types mix.
func (v Value) Compare(o Value) int {
	switch {
	case v.IsInt && o.IsInt:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	case !v.IsInt && !o.IsInt:
		return strings.Compare(v.S, o.S)
	case v.IsInt:
		return -1
	default:
		return 1
	}
}

// ColType is a column type.
type ColType int

const (
	// TypeInt is a 64-bit integer column.
	TypeInt ColType = iota + 1
	// TypeText is a string column.
	TypeText
)

// String renders the type name.
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeText:
		return "TEXT"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ColDef is one column definition.
type ColDef struct {
	Name string
	Type ColType
}

// Cond is a WHERE condition: Col Op Val.
type Cond struct {
	Col string
	Op  string // = < > <= >= !=
	Val Value
}

// Statement is a parsed SQL statement; exactly one field group is set.
type Statement struct {
	Kind StmtKind

	// CREATE TABLE / DROP TABLE / OPTIMIZE TABLE
	Table string
	Cols  []ColDef

	// CREATE INDEX
	IndexName string
	IndexCol  string

	// INSERT
	Values []Value

	// SELECT
	SelectCols []string // ["*"] or column names; COUNT sets CountCol
	CountCol   string   // non-empty for SELECT COUNT(col|*)
	Where      *Cond
	OrderBy    string
	OrderDesc  bool
	Limit      int // -1 when absent

	// UPDATE
	SetCol string
	SetVal Value
	// SetDelta is n for a "SET col = col + n" self-referencing update (the
	// shape that exercises the index-update-scan bug), zero included, and
	// nil for a plain "SET col = value", which writes SetVal.
	SetDelta *int64

	// LOCK TABLES
	LockWrite bool
}

// StmtKind discriminates statements.
type StmtKind int

// Statement kinds.
const (
	StmtCreateTable StmtKind = iota + 1
	StmtDropTable
	StmtCreateIndex
	StmtInsert
	StmtSelect
	StmtUpdate
	StmtDelete
	StmtLockTables
	StmtUnlockTables
	StmtFlushTables
	StmtFlushPrivileges
	StmtOptimizeTable
	StmtGrant
)

// Parse parses one SQL statement.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	c := &cursor{toks: toks}
	switch {
	case c.acceptKeyword("CREATE"):
		if c.acceptKeyword("TABLE") {
			return parseCreateTable(c)
		}
		if c.acceptKeyword("INDEX") {
			return parseCreateIndex(c)
		}
		return nil, fmt.Errorf("sqldb: CREATE must be followed by TABLE or INDEX")
	case c.acceptKeyword("DROP"):
		if err := c.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		return &Statement{Kind: StmtDropTable, Table: name}, nil
	case c.acceptKeyword("INSERT"):
		return parseInsert(c)
	case c.acceptKeyword("SELECT"):
		return parseSelect(c)
	case c.acceptKeyword("UPDATE"):
		return parseUpdate(c)
	case c.acceptKeyword("DELETE"):
		return parseDelete(c)
	case c.acceptKeyword("LOCK"):
		if err := c.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		name, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		st := &Statement{Kind: StmtLockTables, Table: name}
		if c.acceptKeyword("WRITE") {
			st.LockWrite = true
		} else {
			_ = c.acceptKeyword("READ")
		}
		return st, nil
	case c.acceptKeyword("UNLOCK"):
		if err := c.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &Statement{Kind: StmtUnlockTables}, nil
	case c.acceptKeyword("FLUSH"):
		if c.acceptKeyword("TABLES") {
			return &Statement{Kind: StmtFlushTables}, nil
		}
		if c.acceptKeyword("PRIVILEGES") {
			return &Statement{Kind: StmtFlushPrivileges}, nil
		}
		return nil, fmt.Errorf("sqldb: FLUSH must be followed by TABLES or PRIVILEGES")
	case c.acceptKeyword("OPTIMIZE"):
		if err := c.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		return &Statement{Kind: StmtOptimizeTable, Table: name}, nil
	case c.acceptKeyword("GRANT"):
		// GRANT <anything>: recognized but minimally modeled.
		return &Statement{Kind: StmtGrant}, nil
	default:
		return nil, fmt.Errorf("sqldb: unrecognized statement %q", input)
	}
}

func parseCreateTable(c *cursor) (*Statement, error) {
	name, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtCreateTable, Table: name}
	for {
		col, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		typName, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		var typ ColType
		switch strings.ToUpper(typName) {
		case "INT", "INTEGER", "BIGINT":
			typ = TypeInt
		case "TEXT", "VARCHAR", "CHAR":
			typ = TypeText
			// Tolerate a length suffix: VARCHAR(255).
			if c.acceptSymbol("(") {
				if _, err := c.expectIdent(); err != nil {
					if c.peek().kind != tokNumber {
						return nil, fmt.Errorf("sqldb: bad varchar length")
					}
					c.next()
				}
				if err := c.expectSymbol(")"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("sqldb: unknown column type %q", typName)
		}
		st.Cols = append(st.Cols, ColDef{Name: col, Type: typ})
		if c.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := c.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func parseCreateIndex(c *cursor) (*Statement, error) {
	idx, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectSymbol("("); err != nil {
		return nil, err
	}
	col, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &Statement{Kind: StmtCreateIndex, IndexName: idx, Table: table, IndexCol: col}, nil
}

func parseInsert(c *cursor) (*Statement, error) {
	if err := c.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := c.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtInsert, Table: name}
	for {
		v, err := parseValue(c)
		if err != nil {
			return nil, err
		}
		st.Values = append(st.Values, v)
		if c.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := c.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func parseValue(c *cursor) (Value, error) {
	t := c.next()
	switch t.kind {
	case tokNumber:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("sqldb: bad number %q: %w", t.text, err)
		}
		return IntValue(i), nil
	case tokString:
		return StrValue(t.text), nil
	default:
		return Value{}, fmt.Errorf("sqldb: expected value, got %q", t.text)
	}
}

func parseSelect(c *cursor) (*Statement, error) {
	st := &Statement{Kind: StmtSelect, Limit: -1}
	if c.acceptKeyword("COUNT") {
		if err := c.expectSymbol("("); err != nil {
			return nil, err
		}
		if c.acceptSymbol("*") {
			st.CountCol = "*"
		} else {
			col, err := c.expectIdent()
			if err != nil {
				return nil, err
			}
			st.CountCol = col
		}
		if err := c.expectSymbol(")"); err != nil {
			return nil, err
		}
	} else if c.acceptSymbol("*") {
		st.SelectCols = []string{"*"}
	} else {
		for {
			col, err := c.expectIdent()
			if err != nil {
				return nil, err
			}
			st.SelectCols = append(st.SelectCols, col)
			if !c.acceptSymbol(",") {
				break
			}
		}
	}
	if err := c.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if c.acceptKeyword("WHERE") {
		cond, err := parseCond(c)
		if err != nil {
			return nil, err
		}
		st.Where = cond
	}
	if c.acceptKeyword("ORDER") {
		if err := c.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := c.expectIdent()
		if err != nil {
			return nil, err
		}
		st.OrderBy = col
		if c.acceptKeyword("DESC") {
			st.OrderDesc = true
		} else {
			_ = c.acceptKeyword("ASC")
		}
	}
	if c.acceptKeyword("LIMIT") {
		t := c.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sqldb: LIMIT needs a number, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, err
		}
		st.Limit = n
	}
	return st, nil
}

func parseCond(c *cursor) (*Cond, error) {
	col, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	op := c.next()
	if op.kind != tokSymbol {
		return nil, fmt.Errorf("sqldb: expected comparison operator, got %q", op.text)
	}
	switch op.text {
	case "=", "<", ">", "<=", ">=", "!=":
	default:
		return nil, fmt.Errorf("sqldb: unsupported operator %q", op.text)
	}
	v, err := parseValue(c)
	if err != nil {
		return nil, err
	}
	return &Cond{Col: col, Op: op.text, Val: v}, nil
}

func parseUpdate(c *cursor) (*Statement, error) {
	table, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("SET"); err != nil {
		return nil, err
	}
	col, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := c.expectSymbol("="); err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtUpdate, Table: table, SetCol: col}
	// Either a literal, or the self-referencing "col = col + n" form.
	if t := c.peek(); t.kind == tokIdent && strings.EqualFold(t.text, col) {
		c.next()
		if err := c.expectSymbol("+"); err != nil {
			return nil, err
		}
		t2 := c.next()
		if t2.kind != tokNumber {
			return nil, fmt.Errorf("sqldb: expected delta after %q, got %q", col, t2.text)
		}
		n, err := strconv.ParseInt(t2.text, 10, 64)
		if err != nil {
			return nil, err
		}
		st.SetDelta = &n
	} else {
		v, err := parseValue(c)
		if err != nil {
			return nil, err
		}
		st.SetVal = v
	}
	if c.acceptKeyword("WHERE") {
		cond, err := parseCond(c)
		if err != nil {
			return nil, err
		}
		st.Where = cond
	}
	return st, nil
}

func parseDelete(c *cursor) (*Statement, error) {
	if err := c.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := c.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtDelete, Table: table}
	if c.acceptKeyword("WHERE") {
		cond, err := parseCond(c)
		if err != nil {
			return nil, err
		}
		st.Where = cond
	}
	return st, nil
}
