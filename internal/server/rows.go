package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxExactInt bounds the integers a JSON number carries exactly: every
// number is read as a float64, in which neighbouring integers collapse above
// 2⁵³ and whose conversion to int64 saturates from 2⁶³.
const maxExactInt = 1 << 53

// instanceRows is the "rows" member of a discovery request — an array of
// equally long arrays of numbers and strings — decoded straight into flat
// typed cells. Left to encoding/json as [][]any, every number is boxed into
// an interface and every row grown cell by cell through reflection, which
// cost more than validating the relation did.
//
// Decoding validates what can be judged without the schema: rows are arrays
// of one width, cells are numbers or strings, and no column mixes the two.
type instanceRows struct {
	n, width int
	cols     []columnKind
	nums     []float64 // row-major; the numeric cells, zero under a string cell
	strs     []string  // row-major; nil until the first string cell
}

// columnKind is what the cells seen so far make of a column.
type columnKind struct {
	num, str bool // a number, a string was seen
	float    bool // a number with a fraction, or an integer beyond ±2⁵³
}

// UnmarshalJSON implements json.Unmarshaler. The decoder hands over a
// syntactically valid value, so the walk below only has to tell the shapes
// apart; a byte it does not expect is reported, never skipped.
func (t *instanceRows) UnmarshalJSON(b []byte) error {
	*t = instanceRows{}
	if string(bytes.TrimSpace(b)) == "null" { // as for any slice: no rows
		return nil
	}
	p := rowsParser{b: b}
	if p.next() != '[' {
		return fmt.Errorf("rows must be an array of rows")
	}
	p.i++
	if p.next() == ']' {
		return nil
	}
	// Commas separate cells and rows alike (and may sit inside strings), so
	// their count bounds the cell count from above.
	t.nums = make([]float64, 0, bytes.Count(b, []byte{','})+1)
	for {
		if p.next() != '[' {
			return fmt.Errorf("row %d is not an array", t.n)
		}
		p.i++
		col := 0
		for c := p.next(); c != ']'; c = p.next() {
			if col > 0 {
				if c != ',' {
					return fmt.Errorf("row %d: unexpected %q", t.n, c)
				}
				p.i++
			}
			if err := t.cell(&p, col); err != nil {
				return err
			}
			col++
		}
		p.i++
		if t.n == 0 {
			t.width = col
		} else if col != t.width {
			return fmt.Errorf("row %d has %d cells, row 0 has %d", t.n, col, t.width)
		}
		t.n++
		switch p.next() {
		case ',':
			p.i++
		case ']':
			p.i++
			if p.next() != 0 {
				return fmt.Errorf("rows: unexpected %q after the array", p.b[p.i])
			}
			return nil
		default:
			return fmt.Errorf("row %d: unterminated rows array", t.n)
		}
	}
}

// cell decodes the value at the cursor as the cell of column col of row t.n.
func (t *instanceRows) cell(p *rowsParser, col int) error {
	if t.n == 0 {
		t.cols = append(t.cols, columnKind{})
	} else if col >= t.width {
		return fmt.Errorf("row %d has more than %d cells, the width of row 0", t.n, t.width)
	}
	kind := &t.cols[col]
	switch c := p.next(); {
	case c == '"':
		if kind.num {
			return fmt.Errorf("row %d, column %d: string in a numeric column", t.n, col)
		}
		s, err := p.str()
		if err != nil {
			return fmt.Errorf("row %d, column %d: %w", t.n, col, err)
		}
		kind.str = true
		if t.strs == nil {
			t.strs = make([]string, len(t.nums), cap(t.nums))
		}
		t.strs = append(t.strs, s)
		t.nums = append(t.nums, 0)
	case c == '-' || '0' <= c && c <= '9':
		if kind.str {
			return fmt.Errorf("row %d, column %d: number in a textual column", t.n, col)
		}
		v, err := p.num()
		if err != nil {
			return fmt.Errorf("row %d, column %d: %w", t.n, col, err)
		}
		kind.num = true
		if v != math.Trunc(v) || math.Abs(v) > maxExactInt {
			kind.float = true
		}
		t.nums = append(t.nums, v)
		if t.strs != nil {
			t.strs = append(t.strs, "")
		}
	default:
		return fmt.Errorf("row %d, column %d: unsupported value (cells are numbers or strings)", t.n, col)
	}
	return nil
}

// rowsParser is a cursor over the JSON text of the rows.
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

// num reads the number at the cursor the way encoding/json reads one into a
// float64.
func (p *rowsParser) num() (float64, error) {
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; !('0' <= c && c <= '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
	}
	return strconv.ParseFloat(string(p.b[start:p.i]), 64)
}

// str reads the string at the cursor. A string without escapes that is valid
// UTF-8 is its own decoding; anything else goes through encoding/json, which
// owns the escape and replacement rules.
func (p *rowsParser) str() (string, error) {
	start := p.i
	plain := true
	for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if p.b[p.i] == '\\' {
			plain = false
			p.i++
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
