package serve

// The request decoder: one pass over a /v1/place body or one batch line,
// straight into a PlaceRequest, with no reflection. Keys are matched by a
// switch on their bytes, integers are parsed where they stand, and the
// elements of each array are gathered in stack scratch and copied out once,
// so a recorded query costs one allocation per array field plus one for
// all its samples rows.
//
// It accepts exactly the bodies encoding/json (with DisallowUnknownFields)
// accepts for a PlaceRequest, and fills the same value — nulls, null array
// elements and repeated keys included — with two deliberate exceptions,
// both rejections: a key must be spelled exactly as its struct tag
// (case-sensitive, no escapes), and nothing but whitespace may follow the
// object. FuzzPlaceRequest holds it to that.

import (
	"fmt"
	"math"

	"synpa/internal/pmu"
)

// decodeRequest decodes body into q the way json.Unmarshal would, under
// the exact-key and no-trailing-data rules: a key present in body
// overwrites its field (null leaves an integer field as it was and sets an
// array field to nil), a field whose key is absent keeps its value.
func decodeRequest(body []byte, q *PlaceRequest) error {
	d := reqDecoder{buf: body}
	d.space()
	if !d.null() {
		if err := d.object(q); err != nil {
			return err
		}
	}
	d.space()
	if d.pos < len(d.buf) {
		return d.errorf("data after the request object")
	}
	return nil
}

// reqDecoder is a cursor over one request body.
type reqDecoder struct {
	buf []byte
	pos int
}

func (d *reqDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the cursor (or the end of input) where
// want was required.
func (d *reqDecoder) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.buf[d.pos], want)
}

// space skips JSON whitespace.
func (d *reqDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume steps over c if it is the next byte.
func (d *reqDecoder) consume(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// null steps over a null literal if one is next. A null run into more
// letters ("nullx") is left for the caller's delimiter check to reject.
func (d *reqDecoder) null() bool {
	if d.pos+4 <= len(d.buf) && d.buf[d.pos] == 'n' && string(d.buf[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// object decodes a JSON object into q.
func (d *reqDecoder) object(q *PlaceRequest) error {
	if !d.consume('{') {
		return d.unexpected("'{' or null")
	}
	d.space()
	for i := 0; !d.consume('}'); i++ {
		if i > 0 {
			if !d.consume(',') {
				return d.unexpected("',' or '}'")
			}
			d.space()
		}
		start := d.pos
		key, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if !d.consume(':') {
			return d.unexpected("':'")
		}
		d.space()
		switch string(key) {
		case "num_cores":
			err = d.intField(&q.NumCores)
		case "num_apps":
			err = d.intField(&q.NumApps)
		case "smt_level":
			err = d.intField(&q.SMTLevel)
		case "dispatch_width":
			err = d.intField(&q.DispatchWidth)
		case "quantum":
			err = d.intField(&q.Quantum)
		case "app_ids":
			q.AppIDs, err = d.ints(q.AppIDs)
		case "prev":
			q.Prev, err = d.ints(q.Prev)
		case "priorities":
			q.Priorities, err = d.ints(q.Priorities)
		case "samples":
			q.Samples, err = d.samples(q.Samples)
		default:
			d.pos = start
			return d.errorf("unknown field %q (keys must match the field names exactly)", key)
		}
		if err != nil {
			return err
		}
		d.space()
	}
	return nil
}

// key reads an object key, returning its raw bytes. An escaped key is
// rejected: it cannot be the exact spelling of a field name.
func (d *reqDecoder) key() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.unexpected("a key")
	}
	start := d.pos
	for ; d.pos < len(d.buf); d.pos++ {
		switch d.buf[d.pos] {
		case '"':
			d.pos++
			return d.buf[start : d.pos-1], nil
		case '\\':
			return nil, d.errorf("escaped key (keys must match the field names exactly)")
		}
	}
	return nil, d.unexpected("the end of a key")
}

// intField decodes an integer or null into *dst; null leaves *dst as it
// was, as encoding/json does.
func (d *reqDecoder) intField(dst *int) error {
	if d.null() {
		return nil
	}
	v, err := integer[int](d)
	if err == nil {
		*dst = v
	}
	return err
}

// wireInt is the element type of a request array: int, or uint64 for PMU
// counters.
type wireInt interface{ int | uint64 }

// integer decodes a JSON number that is an integer in range for T. A
// fraction or an exponent is rejected, as encoding/json rejects it for an
// integer field; for uint64 so is any minus sign, "-0" included.
func integer[T wireInt](d *reqDecoder) (T, error) {
	buf, start := d.buf, d.pos
	i := start
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	first := i
	for i < len(buf) && buf[i]-'0' <= 9 {
		i++
	}
	digits := buf[first:i]
	var mag uint64
	for _, c := range digits {
		mag = mag*10 + uint64(c-'0')
	}
	signed := ^T(0) < 0
	switch {
	case len(digits) == 0:
		d.pos = i
		return 0, d.unexpected("an integer or null")
	case len(digits) > 1 && digits[0] == '0':
		return 0, d.errorf("leading zero in a number")
	case i < len(buf) && (buf[i] == '.' || buf[i] == 'e' || buf[i] == 'E'):
		return 0, d.errorf("number is not an integer")
	case len(digits) > len("18446744073709551615"),
		len(digits) == len("18446744073709551615") && string(digits) > "18446744073709551615",
		signed && !neg && mag > math.MaxInt,
		signed && neg && mag > math.MaxInt+1:
		return 0, d.errorf("integer out of range")
	case neg && !signed:
		return 0, d.errorf("negative counter")
	}
	d.pos = i
	if neg {
		return T(-mag), nil
	}
	return T(mag), nil
}

// elems decodes the elements of a JSON array whose '[' is consumed,
// appending them to vals. A null element reads as hist[i], zero past its
// end: encoding/json leaves an element it decodes null into as it was, and
// a slice's spare capacity can hold values from an earlier repeat of the
// key.
func elems[T wireInt](d *reqDecoder, hist, vals []T) ([]T, error) {
	d.space()
	for i := 0; !d.consume(']'); i++ {
		if i > 0 {
			if !d.consume(',') {
				return vals, d.unexpected("',' or ']'")
			}
			d.space()
		}
		v := at(hist, i)
		if !d.null() {
			var err error
			if v, err = integer[T](d); err != nil {
				return vals, err
			}
		}
		vals = append(vals, v)
		d.space()
	}
	return vals, nil
}

// fill stores decoded elements the way encoding/json stores an array into
// a slice already holding old: in old's backing array when it has
// room, in a fresh one otherwise, and an empty array as a fresh empty
// slice.
func fill[T any](old []T, vals []T) []T {
	if len(vals) == 0 {
		return []T{}
	}
	out := old[:cap(old)]
	if len(vals) > len(out) {
		out = make([]T, len(vals))
	}
	out = out[:len(vals)]
	copy(out, vals)
	return out
}

// ints decodes an integer array or null into a slice field holding old.
func (d *reqDecoder) ints(old []int) ([]int, error) {
	if d.null() {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.unexpected("'[' or null")
	}
	var scratch [64]int // longer arrays spill to the heap
	vals, err := elems(d, old[:cap(old)], scratch[:0])
	if err != nil {
		return nil, err
	}
	return fill(old, vals), nil
}

// samples decodes the samples matrix or null into a field holding old.
// Rows with no room in the slice old held at their index share one fresh
// backing array, each capped at its own length.
func (d *reqDecoder) samples(old [][]uint64) ([][]uint64, error) {
	if d.null() {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.unexpected("'[' or null")
	}
	// Stack room for the 8 threads of a 4-core SMT2 machine; more rows
	// spill to the heap.
	var valScratch [8 * pmu.NumEvents]uint64
	var lenScratch [8]int
	vals, lens := valScratch[:0], lenScratch[:0] // a null row has length -1
	hist := old[:cap(old)]
	d.space()
	for i := 0; !d.consume(']'); i++ {
		if i > 0 {
			if !d.consume(',') {
				return nil, d.unexpected("',' or ']'")
			}
			d.space()
		}
		if d.null() {
			lens = append(lens, -1)
		} else {
			if !d.consume('[') {
				return nil, d.unexpected("a row or null")
			}
			row, n := at(hist, i), len(vals)
			var err error
			if vals, err = elems(d, row[:cap(row)], vals); err != nil {
				return nil, err
			}
			lens = append(lens, len(vals)-n)
		}
		d.space()
	}

	fresh := 0
	for i, n := range lens {
		if n > cap(at(hist, i)) {
			fresh += n
		}
	}
	backing := make([]uint64, fresh)
	var rowScratch [8][]uint64
	rows := rowScratch[:0]
	for i, n := range lens {
		row := at(hist, i)
		switch {
		case n < 0:
			row = nil
		case n == 0:
			row = []uint64{}
		case n <= cap(row):
			row = row[:n]
		default:
			row, backing = backing[:n:n], backing[n:]
		}
		vals = vals[copy(row, vals):]
		rows = append(rows, row)
	}
	return fill(old, rows), nil
}

// at returns s[i], or the zero value past the end of s.
func at[T any](s []T, i int) T {
	if i < len(s) {
		return s[i]
	}
	var zero T
	return zero
}
