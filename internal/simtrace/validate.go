package simtrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// ValidateChrome checks that data is a well-formed Chrome trace-event
// JSON object: known phases only, timestamps present where required,
// non-negative durations, per-track monotone non-decreasing
// timestamps, and every async end matching a previously opened begin
// (spans still open at end-of-capture are legal — they are queries in
// flight when the simulation stopped).
//
// It reads data once, checking JSON syntax and applying the rules to
// each event as it is scanned, without building the event list. It
// accepts exactly what decoding the file with encoding/json into a
// slice of events, then applying the rules, would: keys match
// case-insensitively, a later duplicate key wins, null leaves a string
// or int field as it was, and numbers parse with strconv on the
// literal. A file that repeats the traceEvents key, whose later arrays
// encoding/json decodes over the earlier arrays' elements, gets a
// second pass that keeps every element.
func ValidateChrome(data []byte) error {
	err := newValidator(data, false).file()
	if err == errRepeatedEvents {
		err = newValidator(data, true).file()
	}
	return err
}

var errRepeatedEvents = errors.New("simtrace: traceEvents key repeated")

// chromeEvent is one trace event as the rules see it. The byte slices
// alias the input unless the JSON string had escapes or invalid UTF-8.
type chromeEvent struct {
	name, cat, ph []byte
	pid, tid      int
	ts, dur       float64
	hasTS, hasDur bool
	id            []byte // the raw JSON value; nil when absent
}

// Event fields, indexed by eventFields.
const (
	fieldName = iota
	fieldCat
	fieldPh
	fieldPid
	fieldTid
	fieldTS
	fieldDur
	fieldID
	fieldOther
)

var eventFields = [fieldOther]string{"name", "cat", "ph", "pid", "tid", "ts", "dur", "id"}

type validator struct {
	scanner
	// keep decodes every traceEvents array into slots, over the
	// elements of the arrays before it, and applies the rules at the
	// end; otherwise each element is checked as soon as it is read.
	keep    bool
	seen    bool
	n       int // elements in the last traceEvents array
	slots   []chromeEvent
	cur     chromeEvent
	ruleErr error // the first rule violation while streaming
	rules   rules
}

func newValidator(data []byte, keep bool) *validator {
	return &validator{
		scanner: scanner{data: data},
		keep:    keep,
		rules:   rules{lastTS: map[[2]int]float64{}, open: map[string]int{}},
	}
}

func (v *validator) file() error {
	if v.peek() != '{' {
		return errors.New("parse: trace is not a JSON object")
	}
	err := v.object(func(key jstr) error {
		if !keyIs(key, "traceEvents") {
			return v.skip()
		}
		if v.seen && !v.keep {
			return errRepeatedEvents
		}
		v.seen = true
		return v.events()
	})
	if err != nil {
		return err
	}
	if v.space(); v.pos < len(v.data) {
		return v.syntaxError()
	}
	if v.n == 0 {
		return errors.New("no traceEvents")
	}
	if v.keep {
		for i := range v.slots[:v.n] {
			if err := v.rules.check(i, &v.slots[i]); err != nil {
				return err
			}
		}
	}
	return v.ruleErr
}

// events reads the traceEvents value.
func (v *validator) events() error {
	switch v.peek() {
	case 'n':
		v.slots, v.n = nil, 0
		return v.literal("null")
	case '[':
	default:
		return v.typeError("traceEvents", "an array")
	}
	i := 0
	err := v.array(func() error {
		e := &v.cur
		if v.keep {
			if i == len(v.slots) {
				v.slots = append(v.slots, chromeEvent{})
			}
			e = &v.slots[i]
		} else {
			*e = chromeEvent{}
		}
		if err := v.event(e); err != nil {
			return err
		}
		if !v.keep && v.ruleErr == nil {
			v.ruleErr = v.rules.check(i, e)
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	v.n = i
	if i == 0 {
		v.slots = nil
	}
	return nil
}

// event decodes one array element over e.
func (v *validator) event(e *chromeEvent) error {
	switch v.peek() {
	case 'n':
		return v.literal("null")
	case '{':
	default:
		return v.typeError("event", "an object")
	}
	return v.object(func(key jstr) error {
		switch eventField(key) {
		case fieldName:
			return v.stringField(&e.name)
		case fieldCat:
			return v.stringField(&e.cat)
		case fieldPh:
			return v.stringField(&e.ph)
		case fieldPid:
			return v.intField(&e.pid)
		case fieldTid:
			return v.intField(&e.tid)
		case fieldTS:
			return v.floatField(&e.ts, &e.hasTS)
		case fieldDur:
			return v.floatField(&e.dur, &e.hasDur)
		case fieldID:
			return v.rawField(&e.id)
		}
		return v.skip()
	})
}

func eventField(key jstr) int {
	// Exact matches first: they are what WriteChrome emits.
	if key.ascii {
		for f, name := range eventFields {
			if string(key.raw[1:len(key.raw)-1]) == name {
				return f
			}
		}
	}
	for f, name := range eventFields {
		if keyIs(key, name) {
			return f
		}
	}
	return fieldOther
}

// keyIs reports whether key names the field name, folding case as
// encoding/json does.
func keyIs(key jstr, name string) bool {
	if key.ascii && len(key.raw) != len(name)+2 {
		return false
	}
	return bytes.EqualFold(key.value(), []byte(name))
}

// typeError reports the value at pos as the wrong type for what, once
// it has checked the value's syntax.
func (v *validator) typeError(what, want string) error {
	at := v.pos
	if err := v.skip(); err != nil {
		return err
	}
	return fmt.Errorf("parse: %s at offset %d is not %s", what, at, want)
}

func (v *validator) stringField(dst *[]byte) error {
	switch v.peek() {
	case 'n':
		return v.literal("null")
	case '"':
		s, err := v.str()
		if err != nil {
			return err
		}
		*dst = s.value()
		return nil
	}
	return v.typeError("value", "a string")
}

func (v *validator) intField(dst *int) error {
	switch c := v.peek(); {
	case c == 'n':
		return v.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return v.typeError("value", "a number")
	}
	lit, err := v.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(n)) != n {
		return fmt.Errorf("parse: number %s at offset %d is not an int", lit, v.pos-len(lit))
	}
	*dst = int(n)
	return nil
}

func (v *validator) floatField(dst *float64, has *bool) error {
	switch c := v.peek(); {
	case c == 'n':
		*has = false
		return v.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return v.typeError("value", "a number")
	}
	lit, err := v.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("parse: number %s at offset %d is not a float64", lit, v.pos-len(lit))
	}
	*dst, *has = f, true
	return nil
}

func (v *validator) rawField(dst *[]byte) error {
	if v.peek() == 'n' {
		*dst = nil
		return v.literal("null")
	}
	start := v.pos
	err := v.skip()
	*dst = v.data[start:v.pos]
	return err
}

// rules applies the per-event checks in file order.
type rules struct {
	lastTS map[[2]int]float64
	open   map[string]int // async spans begun and not yet ended
	key    []byte
}

func (r *rules) check(i int, e *chromeEvent) error {
	if len(e.name) == 0 {
		return fmt.Errorf("event %d: missing name", i)
	}
	switch string(e.ph) {
	case "M":
		return nil
	case "X":
		if !e.hasTS || !e.hasDur {
			return fmt.Errorf("event %d (%s): slice missing ts/dur", i, e.name)
		}
		if e.dur < 0 {
			return fmt.Errorf("event %d (%s): negative dur %g", i, e.name, e.dur)
		}
	case "b", "e":
		if !e.hasTS || e.id == nil {
			return fmt.Errorf("event %d (%s): async event missing ts/id", i, e.name)
		}
		r.key = append(r.key[:0], e.cat...)
		r.key = append(r.key, 0)
		r.key = append(r.key, e.name...)
		r.key = append(r.key, 0)
		r.key = append(r.key, e.id...)
		n := r.open[string(r.key)]
		switch {
		case e.ph[0] == 'b':
			r.open[string(r.key)] = n + 1
		case n == 0:
			return fmt.Errorf("event %d (%s): async end without begin", i, e.name)
		case n == 1:
			delete(r.open, string(r.key))
		default:
			r.open[string(r.key)] = n - 1
		}
	case "i":
		if !e.hasTS {
			return fmt.Errorf("event %d (%s): instant missing ts", i, e.name)
		}
	default:
		return fmt.Errorf("event %d (%s): unknown phase %q", i, e.name, e.ph)
	}
	track := [2]int{e.pid, e.tid}
	if prev, ok := r.lastTS[track]; ok && e.ts < prev {
		return fmt.Errorf("event %d (%s): ts %g regresses below %g on track %d/%d",
			i, e.name, e.ts, prev, e.pid, e.tid)
	}
	r.lastTS[track] = e.ts
	return nil
}

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// scanner is a JSON syntax checker over data that hands values to its
// caller as it meets them.
type scanner struct {
	data  []byte
	pos   int
	depth int
}

func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, or 0 at the end of
// the input.
func (s *scanner) peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos]
	}
	if s.space(); s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

func (s *scanner) syntaxError() error {
	if s.pos >= len(s.data) {
		return errors.New("parse: unexpected end of JSON input")
	}
	return fmt.Errorf("parse: invalid character %q at offset %d", s.data[s.pos], s.pos)
}

// open consumes the '{' or '[' at pos.
func (s *scanner) open() error {
	if s.depth++; s.depth > maxNesting {
		return fmt.Errorf("parse: exceeded max depth at offset %d", s.pos)
	}
	s.pos++
	return nil
}

// close consumes c, the object's or array's closing byte, if it comes
// next.
func (s *scanner) close(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.pos++
	s.depth--
	return true
}

// object scans the object at pos, calling member for each key with the
// scanner at that key's value; member must consume the value.
func (s *scanner) object(member func(key jstr) error) error {
	if err := s.open(); err != nil {
		return err
	}
	if s.close('}') {
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.syntaxError()
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.syntaxError()
		}
		s.pos++
		if err := member(key); err != nil {
			return err
		}
		if s.close('}') {
			return nil
		}
		if s.peek() != ',' {
			return s.syntaxError()
		}
		s.pos++
	}
}

// array scans the array at pos, calling elem with the scanner at each
// element; elem must consume the element.
func (s *scanner) array(elem func() error) error {
	if err := s.open(); err != nil {
		return err
	}
	if s.close(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.close(']') {
			return nil
		}
		if s.peek() != ',' {
			return s.syntaxError()
		}
		s.pos++
	}
}

// skip scans one value of any kind.
func (s *scanner) skip() error {
	switch s.peek() {
	case '{':
		return s.object(func(jstr) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.number()
	return err
}

func (s *scanner) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != lit[i] {
			return s.syntaxError()
		}
		s.pos++
	}
	return nil
}

// number scans a number literal and returns it.
func (s *scanner) number() ([]byte, error) {
	d, start := s.data, s.pos
	digits := func() {
		for s.pos < len(d) && '0' <= d[s.pos] && d[s.pos] <= '9' {
			s.pos++
		}
	}
	if s.pos < len(d) && d[s.pos] == '-' {
		s.pos++
	}
	switch {
	case s.pos < len(d) && d[s.pos] == '0':
		s.pos++
	case s.pos < len(d) && '1' <= d[s.pos] && d[s.pos] <= '9':
		digits()
	default:
		return nil, s.syntaxError()
	}
	if s.pos < len(d) && d[s.pos] == '.' {
		s.pos++
		if s.pos >= len(d) || d[s.pos] < '0' || d[s.pos] > '9' {
			return nil, s.syntaxError()
		}
		digits()
	}
	if s.pos < len(d) && (d[s.pos] == 'e' || d[s.pos] == 'E') {
		s.pos++
		if s.pos < len(d) && (d[s.pos] == '+' || d[s.pos] == '-') {
			s.pos++
		}
		if s.pos >= len(d) || d[s.pos] < '0' || d[s.pos] > '9' {
			return nil, s.syntaxError()
		}
		digits()
	}
	return d[start:s.pos], nil
}

// jstr is a scanned JSON string literal, quotes included. plain means
// the bytes between the quotes are its value: no escapes and valid
// UTF-8. ascii means they are also all ASCII.
type jstr struct {
	raw          []byte
	plain, ascii bool
}

// value returns the decoded string, as encoding/json decodes it.
func (j jstr) value() []byte {
	if j.plain {
		return j.raw[1 : len(j.raw)-1]
	}
	var v string
	json.Unmarshal(j.raw, &v) // cannot fail: the scanner accepted the literal
	return []byte(v)
}

func (s *scanner) str() (jstr, error) {
	d, start := s.data, s.pos
	esc, ascii := false, true
	for i := start + 1; i < len(d); {
		switch c := d[i]; {
		case ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\':
			i++
		case c == '"':
			s.pos = i + 1
			raw := d[start:s.pos]
			plain := !esc && (ascii || utf8.Valid(raw[1:len(raw)-1]))
			return jstr{raw: raw, plain: plain, ascii: plain && ascii}, nil
		case c == '\\':
			esc = true
			n := 2
			if i+1 < len(d) && d[i+1] == 'u' {
				n = 6
			}
			for k := i + 1; k < i+n; k++ {
				if k >= len(d) || !validEscape(d[k], k-i) {
					s.pos = k
					return jstr{}, s.syntaxError()
				}
			}
			i += n
		case c < ' ':
			s.pos = i
			return jstr{}, s.syntaxError()
		default: // c >= utf8.RuneSelf
			ascii = false
			i++
		}
	}
	s.pos = len(d)
	return jstr{}, s.syntaxError()
}

// validEscape reports whether c may sit at offset k (1-based) after a
// backslash: an escape letter at 1, a hex digit at 2–5 of \uXXXX.
func validEscape(c byte, k int) bool {
	if k == 1 {
		switch c {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't', 'u':
			return true
		}
		return false
	}
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
