package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"odlib/internal/core"
)

// maxExactInt bounds the integers a JSON number carries exactly: every
// number is read as a float64, in which neighbouring integers collapse above
// 2⁵³ and whose conversion to int64 saturates from 2⁶³.
const maxExactInt = 1 << 53

// instanceRows is the "rows" member of a discovery request — an array of
// equally long arrays of numbers and strings — decoded straight into one
// typed vector per column. Left to encoding/json as [][]any, every number is
// boxed into an interface and every row grown cell by cell through
// reflection, which cost more than validating the relation did.
//
// Decoding validates what can be judged without the schema: rows are arrays
// of one width, cells are numbers or strings, and no column mixes the two.
type instanceRows struct {
	n, width int
	cols     []rowsColumn
	// ints says every column is still an integer one, so intRows may
	// decode the next row; loopCells counts the cells it decoded, every
	// other cell went through cell.
	ints      bool
	loopCells int
	// sc is the request's scratch, whose block of integer cells reserve
	// cuts the integer columns from.
	sc *core.Scratch
	// err is why the value is no relation, kept by UnmarshalJSON for
	// decodeDiscoverBytes to report.
	err error
}

// decoded reports how many cells the integer-row loop decoded and how many
// went through cell one call each.
func (t *instanceRows) decoded() (loop, cell uint64) {
	return uint64(t.loopCells), uint64(t.n*t.width - t.loopCells)
}

// rowsColumn is one column's cells so far: strs for a textual column, and
// for a numeric one ints while every number was an integer an int64 carries
// as written, floats from the first that was not — a fraction, an exponent
// that leaves one, an integer beyond ±2⁵³, or -0, whose sign a float column
// keeps. float says the column compares as floats: a fraction or an integer
// beyond ±2⁵³ was seen, not merely a -0.
type rowsColumn struct {
	ints   []int64
	floats []float64
	strs   []string
	float  bool
}

// UnmarshalJSON implements json.Unmarshaler: the path of a body the
// top-level scan of decodeDiscoverBytes declined. Of a member given twice
// encoding/json lets the last count, unless an earlier one was of the wrong
// type; so a value that is no relation is refused on the spot only when it is
// no array of arrays of JSON values either, and is otherwise kept with its
// complaint, which holds if no later "rows" replaces it.
func (t *instanceRows) UnmarshalJSON(b []byte) error {
	if t.err = t.parse(&rowsParser{b: b}); t.err != nil {
		var shape [][]any
		if json.Unmarshal(b, &shape) != nil {
			return t.err
		}
	}
	return nil
}

// parse decodes the rows value at the cursor and leaves the cursor behind
// it. Nothing has validated the bytes: parse holds the JSON grammar of what
// it accepts itself, and a byte it does not expect is reported, never
// skipped.
func (t *instanceRows) parse(p *rowsParser) error {
	*t = instanceRows{sc: t.sc}
	if p.next() == 'n' && bytes.HasPrefix(p.b[p.i:], []byte("null")) { // as for any slice: no rows
		p.i += len("null")
		return nil
	}
	if p.next() != '[' {
		return fmt.Errorf("rows must be an array of rows")
	}
	p.i++
	if p.next() == ']' {
		p.i++
		return nil
	}
	for {
		if p.next() != '[' {
			return fmt.Errorf("row %d is not an array", t.n)
		}
		if !t.ints || !t.intRows(p) {
			if err := t.row(p); err != nil {
				return err
			}
		}
		switch p.next() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return fmt.Errorf("row %d: unterminated rows array", t.n)
		}
	}
}

// row decodes the row at the cursor, an array, cell by cell.
func (t *instanceRows) row(p *rowsParser) error {
	p.i++
	col := 0
	for c := p.next(); c != ']'; c = p.next() {
		if col > 0 {
			if c != ',' {
				return fmt.Errorf("row %d: unexpected %q", t.n, c)
			}
			p.i++
		}
		if err := t.cell(p, col); err != nil {
			return err
		}
		col++
	}
	p.i++
	if t.n == 0 {
		t.width = col
		t.reserve(p.b[p.i:])
	} else if col != t.width {
		return fmt.Errorf("row %d has %d cells, row 0 has %d", t.n, col, t.width)
	}
	t.n++
	return nil
}

// intRows is the loop that decodes a body of integer columns, once row 0
// has fixed them. From the row at the cursor on, it takes each row that is
// '[', the width's plain integers — -?(0|[1-9][0-9]*) of at most 15 digits,
// never -0 — separated by ',' alone, and ']', appending each cell straight to
// its column's reserved cells, and goes on while a row is followed by ",["
// at once. A cell it takes is one num would return exact, so the columns end
// as cell would leave them. At the first byte it does not expect inside a
// row it drops the cells of the row taken so far, leaves the cursor on the
// row's '[' for row to decode, and reports false; after a row, it leaves the
// cursor behind it, at what separates it from the next, and reports true.
func (t *instanceRows) intRows(p *rowsParser) bool {
	b, i, cols, from := p.b, p.i, t.cols, t.n
	taken := true
	for {
		start := i
		i++
		for c := range cols {
			neg := i < len(b) && b[i] == '-'
			if neg {
				i++
			}
			digits := i
			var v int64
			for ; i < len(b); i++ {
				d := b[i] - '0'
				if d > 9 {
					break
				}
				v = v*10 + int64(d)
			}
			sep := byte(',')
			if c == len(cols)-1 {
				sep = ']'
			}
			if n := i - digits; n == 0 || n > 15 || b[digits] == '0' && (n > 1 || neg) || i == len(b) || b[i] != sep {
				for k := range c {
					cols[k].ints = cols[k].ints[:t.n]
				}
				i, taken = start, false
				break
			}
			i++
			if neg {
				v = -v
			}
			cols[c].ints = append(cols[c].ints, v)
		}
		if !taken {
			break
		}
		t.n++
		if i+1 >= len(b) || b[i] != ',' || b[i+1] != '[' {
			break
		}
		i++
	}
	p.i = i
	t.loopCells += (t.n - from) * len(cols)
	return taken
}

// reserve sizes the columns, once row 0 has fixed their number and kinds,
// for the rows the remaining bytes can hold: every row closes a bracket and
// takes two bytes a cell, which bounds what a hostile body can make it
// allocate to a small multiple of its own length. The integer columns are
// cut from the scratch's cells, each capped at its share so that no column
// can append into the next.
func (t *instanceRows) reserve(rest []byte) {
	rows := 1 + min(bytes.Count(rest, []byte{']'}), len(rest)/(2*t.width+2))
	t.ints = len(t.cols) > 0
	for i := range t.cols {
		switch c := &t.cols[i]; {
		case c.ints != nil:
			c.ints = append(t.sc.Ints(rows)[:0], c.ints...)
		case c.floats != nil:
			c.floats, t.ints = slices.Grow(c.floats, rows), false
		default:
			c.strs, t.ints = slices.Grow(c.strs, rows), false
		}
	}
}

// cell decodes the value at the cursor as the cell of column col of row t.n.
func (t *instanceRows) cell(p *rowsParser, col int) error {
	if t.n == 0 {
		t.cols = append(t.cols, rowsColumn{})
	} else if col >= t.width {
		return fmt.Errorf("row %d has more than %d cells, the width of row 0", t.n, t.width)
	}
	c := &t.cols[col]
	switch b := p.next(); {
	case b == '"':
		if c.ints != nil || c.floats != nil {
			return fmt.Errorf("row %d, column %d: string in a numeric column", t.n, col)
		}
		s, err := p.str()
		if err != nil {
			return fmt.Errorf("row %d, column %d: %w", t.n, col, err)
		}
		c.strs = append(c.strs, s)
	case b == '-' || '0' <= b && b <= '9':
		if c.strs != nil {
			return fmt.Errorf("row %d, column %d: number in a textual column", t.n, col)
		}
		i, f, exact, err := p.num()
		if err != nil {
			return fmt.Errorf("row %d, column %d: %w", t.n, col, err)
		}
		switch {
		case exact && c.floats == nil:
			c.ints = append(c.ints, i)
		case exact:
			c.floats = append(c.floats, float64(i))
		default:
			if c.floats == nil {
				c.floats = make([]float64, len(c.ints), cap(c.ints)+1)
				for k, v := range c.ints {
					c.floats[k] = float64(v)
				}
				c.ints, t.ints = nil, false
			}
			c.floats = append(c.floats, f)
			if f != math.Trunc(f) || math.Abs(f) > maxExactInt {
				c.float = true
			}
		}
	default:
		return fmt.Errorf("row %d, column %d: unsupported value (cells are numbers or strings)", t.n, col)
	}
	return nil
}

// columns hands the decoded cells over as core's typed columns, width of
// them — all empty when there are no rows. Each column compares under one
// kind: textual if its cells are strings, float if any number has a fraction
// or lies beyond ±2⁵³ — where distinct integers on the wire would collapse in
// the conversion — and integer otherwise.
func (t *instanceRows) columns(width int) []core.Column {
	cols := make([]core.Column, width)
	for i, c := range t.cols {
		if c.floats != nil && !c.float { // integers all, one of them written -0 or 1e3
			c.ints = make([]int64, len(c.floats))
			for k, v := range c.floats {
				c.ints[k] = int64(v)
			}
			c.floats = nil
		}
		cols[i] = core.Column{Ints: c.ints, Floats: c.floats, Strs: c.strs}
	}
	return cols
}

// rowsParser is a cursor over JSON text.
type rowsParser struct {
	b []byte
	i int
}

// next skips white space and returns the byte at the cursor, zero at the end.
func (p *rowsParser) next() byte {
	for ; p.i < len(p.b); p.i++ {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return p.b[p.i]
		}
	}
	return 0
}

// digits moves the cursor over a run of decimal digits and returns its
// length.
func (p *rowsParser) digits() int {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// num reads the number at the cursor by JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, stopping where it stops
// matching — what follows is the caller's to judge. An integer literal of at
// most 15 digits (other than -0) is exact, and returned as i, accumulated
// while its digits are scanned; any other number is returned as f, read from
// the same bytes the way encoding/json reads one into a float64.
func (p *rowsParser) num() (i int64, f float64, exact bool, err error) {
	start := p.i
	if p.b[p.i] == '-' {
		p.i++
	}
	intStart, k := p.i, p.i
	for ; k < len(p.b); k++ {
		d := p.b[k] - '0'
		if d > 9 {
			break
		}
		i = i*10 + int64(d) // wraps past 18 digits, which are not exact
	}
	p.i = k
	switch n := k - intStart; {
	case n == 0:
		return 0, 0, false, fmt.Errorf("invalid number")
	case n > 1 && p.b[intStart] == '0':
		p.i, i = intStart+1, 0 // a leading zero is the whole integer part
	}
	if p.i-intStart <= 15 && (p.i == len(p.b) || p.b[p.i] != '.' && p.b[p.i] != 'e' && p.b[p.i] != 'E') {
		if intStart == start {
			return i, 0, true, nil
		}
		if i != 0 {
			return -i, 0, true, nil
		}
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if p.digits() == 0 {
			return 0, 0, false, fmt.Errorf("invalid number")
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if p.digits() == 0 {
			return 0, 0, false, fmt.Errorf("invalid number")
		}
	}
	f, err = strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return 0, f, false, err
}

// str reads the string at the cursor. A string without escapes that is valid
// UTF-8 is its own decoding; anything else goes through encoding/json, which
// owns the escape and replacement rules.
func (p *rowsParser) str() (string, error) {
	start := p.i
	plain := true
	for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		switch c := p.b[p.i]; {
		case c == '\\':
			plain = false
			p.i++
		case c < ' ':
			return "", fmt.Errorf("control character in string")
		}
	}
	if p.i >= len(p.b) {
		return "", fmt.Errorf("unterminated string")
	}
	p.i++
	if body := p.b[start+1 : p.i-1]; plain && utf8.Valid(body) {
		return string(body), nil
	}
	var s string
	err := json.Unmarshal(p.b[start:p.i], &s)
	return s, err
}

// key reads the object key at the cursor, a string, and returns its bytes. It
// reports false unless the key is its own decoding in plain ASCII, so that
// matching it to a field name is a matter of letter case alone.
func (p *rowsParser) key() ([]byte, bool) {
	start := p.i + 1
	for p.i++; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// skipValue moves the cursor over the JSON value it stands on, knowing only
// where strings and brackets end: whether what it skipped is JSON is for
// whoever reads those bytes to say. It reports false when the text ends
// inside the value.
func (p *rowsParser) skipValue() bool {
	depth := 0
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
				if p.b[p.i] == '\\' {
					p.i++
				}
			}
			if p.i >= len(p.b) {
				return false
			}
			if depth == 0 {
				p.i++
				return true
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true // the enclosing value's: a scalar ended before it
			}
			if depth--; depth == 0 {
				p.i++
				return true
			}
		case ',', ' ', '\t', '\r', '\n':
			if depth == 0 {
				return true
			}
		}
		p.i++
	}
	return false
}

var rowsKey = []byte("rows")

// scanDiscover decodes a discovery body in one scan of its top-level object:
// keys are read, values skipped, the "rows" member — matched as
// encoding/json matches a key to a field, whatever its letter case — is
// decoded where it stands, and the object without it, a few hundred bytes
// with null in its place, goes through encoding/json as every other request
// body does, so unknown fields and wrongly typed members are refused by the
// same code. It reports false, with req in no particular state, for anything
// but the expected: no object, a key with an escape or beyond ASCII, "rows"
// absent or given twice, any error. The caller then hands the whole body to
// encoding/json, which owns the outcome and the message.
func scanDiscover(body []byte, sc *core.Scratch, req *discoverRequest) bool {
	p := rowsParser{b: body}
	if p.next() != '{' {
		return false
	}
	rows := instanceRows{sc: sc}
	from, to := -1, -1 // the span of the rows value
	for sep := byte('{'); sep != '}'; {
		p.i++
		if p.next() != '"' {
			return false // "{}" included: it has no rows
		}
		key, ok := p.key()
		if !ok || p.next() != ':' {
			return false
		}
		p.i++
		p.next()
		if bytes.EqualFold(key, rowsKey) {
			if from >= 0 {
				return false
			}
			from = p.i
			if rows.parse(&p) != nil {
				return false
			}
			to = p.i
		} else if !p.skipValue() {
			return false
		}
		if sep = p.next(); sep != ',' && sep != '}' {
			return false
		}
	}
	if from < 0 {
		return false
	}
	rest := make([]byte, 0, from+len("null")+p.i+1-to)
	rest = append(append(append(rest, body[:from]...), "null"...), body[to:p.i+1]...)
	if strictDecode(rest, req) != nil {
		return false
	}
	req.Rows = rows
	return true
}

// strictDecode is decodeBody's decode over bytes in hand: unknown fields
// refused, whatever follows the value ignored.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeDiscoverBytes decodes a discovery request body as decodeBody decodes
// every other: strictly, ignoring what follows the object. The integer cells
// are cut from the scratch's block.
func decodeDiscoverBytes(body []byte, sc *core.Scratch, req *discoverRequest) error {
	if scanDiscover(body, sc, req) {
		return nil
	}
	*req = discoverRequest{Rows: instanceRows{sc: sc}}
	if err := strictDecode(body, req); err != nil {
		return err
	}
	return req.Rows.err
}
