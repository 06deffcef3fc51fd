package simtrace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// reset clears e for the next element. The rules read ts and dur only
// when hasTS and hasDur are set, so those two keep stale values.
func (e *chromeEvent) reset() {
	e.name, e.cat, e.ph, e.id = nil, nil, nil, nil
	e.pid, e.tid = 0, 0
	e.hasTS, e.hasDur = false, false
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
	heads   [maxHeads]compactHead // compact's memo, most hit first
	nheads  int
	general int // elements event read rather than compact
}

func newValidator(data []byte, keep bool) *validator {
	v := &validator{
		scanner: scanner{data: data},
		keep:    keep,
		rules: rules{
			lastTS: map[[2]int]float64{},
			names:  map[string]int32{},
			spans:  map[spanKey]int{},
			open:   map[string]int{},
		},
	}
	for i := range v.rules.tidTS {
		v.rules.tidTS[i] = math.Inf(-1)
	}
	return v
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
			e.reset()
		}
		if v.keep || !v.compact(e) {
			v.general++
			if err := v.event(e); err != nil {
				return err
			}
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

// event decodes one array element over e. Its loop reads the common
// case in place, saving calls that are a measurable share of the time
// per event: a plain ASCII key with no space around it, and a comma
// right after the value. The scanner's methods take anything else.
func (v *validator) event(e *chromeEvent) error {
	switch v.peek() {
	case 'n':
		return v.literal("null")
	case '{':
	default:
		return v.typeError("event", "an object")
	}
	d := v.data
	more, err := v.openObject()
	for more && err == nil {
		var f int
		if i, j := v.pos, plainString(d, v.pos); j > 0 && j < len(d) && d[j] == ':' {
			f, v.pos = asciiField(d[i+1:j-1]), j+1
		} else {
			var key jstr
			if key, err = v.key(); err != nil {
				break
			}
			f = eventField(key)
		}
		switch f {
		case fieldName:
			err = v.stringField(&e.name)
		case fieldCat:
			err = v.stringField(&e.cat)
		case fieldPh:
			err = v.stringField(&e.ph)
		case fieldPid:
			err = v.intField(&e.pid)
		case fieldTid:
			err = v.intField(&e.tid)
		case fieldTS:
			err = v.floatField(&e.ts, &e.hasTS)
		case fieldDur:
			err = v.floatField(&e.dur, &e.hasDur)
		case fieldID:
			err = v.rawField(&e.id)
		default:
			err = v.skip()
		}
		if err != nil {
			break
		}
		if v.pos < len(d) && d[v.pos] == ',' {
			v.pos++
			continue
		}
		more, err = v.nextMember('}')
	}
	return err
}

// Keys of the compact layout that event skips as fieldOther. With the
// event fields, each key is one bit of an element's key set.
const (
	fieldS = fieldOther + 1 + iota
	fieldArgs
)

// maxHeads bounds the event heads one validator memoizes.
const maxHeads = 16

// compactHead is a memoized event head: the bytes from an element's
// '{' through its "tid" key and colon, and the fields and key set that
// reading them left.
type compactHead struct {
	head []byte
	ev   chromeEvent
	keys uint16
	hits int
}

// compact reads the element at pos when it is in the compact layout
// WriteChrome writes, filling e, which is reset, exactly as event
// would, and reports whether it did. The layout is one object with no
// white space inside, whose keys are lower-case, come from name, cat,
// ph, pid, tid, ts, dur, id, s and args, and appear at most once each;
// its strings are plain ASCII, pid and tid unsigned integers of at
// most 18 digits with no leading zero, ts and dur unsigned decimals of
// at most 15 digits with no exponent, and args a non-empty object of
// plain ASCII strings. On anything else compact leaves e reset and pos
// at the element.
//
// A head, the bytes through the "tid" key, repeats verbatim across one
// call site's events; an element whose head matches a memoized one
// byte for byte takes that head's fields and key set and is read on
// from its tid value.
func (v *validator) compact(e *chromeEvent) bool {
	if v.peek() != '{' {
		return false
	}
	d, start := v.data, v.pos
	p, keys, f := start+1, uint16(0), -1
	if h := v.head(d[start:]); h != nil {
		*e, keys, p, f = h.ev, h.keys, start+len(h.head), fieldTid
	}
	for {
		if f < 0 {
			if f, p = compactKey(d, p); f < 0 || keys&(1<<f) != 0 {
				e.reset()
				return false
			}
			keys |= 1 << f
			if f == fieldTid && v.nheads < maxHeads {
				v.heads[v.nheads] = compactHead{head: d[start:p], ev: *e, keys: keys}
				v.nheads++
			}
		}
		ok := false
		switch f {
		case fieldName:
			p, ok = compactString(d, p, &e.name)
		case fieldCat:
			p, ok = compactString(d, p, &e.cat)
		case fieldPh:
			p, ok = compactString(d, p, &e.ph)
		case fieldPid:
			p, ok = compactInt(d, p, &e.pid)
		case fieldTid:
			p, ok = compactInt(d, p, &e.tid)
		case fieldTS:
			p, ok = compactFloat(d, p, &e.ts, &e.hasTS)
		case fieldDur:
			p, ok = compactFloat(d, p, &e.dur, &e.hasDur)
		case fieldID:
			if j := plainString(d, p); j > 0 {
				e.id, p, ok = d[p:j], j, true
			}
		case fieldS:
			if j := plainString(d, p); j > 0 {
				p, ok = j, true
			}
		case fieldArgs:
			p, ok = compactArgs(d, p)
		}
		if !ok || p >= len(d) || d[p] != ',' && d[p] != '}' {
			e.reset()
			return false
		}
		if d[p] == '}' {
			v.pos = p + 1
			return true
		}
		p, f = p+1, -1
	}
}

// head returns the memoized head that rest starts with, or nil. A hit
// moves its head ahead of the heads hit less often, so the memo stays
// in the order of its call sites' event counts and the most common
// head is tried first.
func (v *validator) head(rest []byte) *compactHead {
	for i := range v.heads[:v.nheads] {
		h := &v.heads[i]
		if len(rest) <= len(h.head) || string(rest[:len(h.head)]) != string(h.head) {
			continue
		}
		h.hits++
		for ; i > 0 && v.heads[i-1].hits < h.hits; i-- {
			v.heads[i-1], v.heads[i] = v.heads[i], v.heads[i-1]
			h = &v.heads[i-1]
		}
		return h
	}
	return nil
}

// compactKey matches the key at d[p], quotes and colon included,
// against the compact layout's keys as literals, and returns its field
// and the index past the colon; the field is -1 for any other key.
func compactKey(d []byte, p int) (int, int) {
	if p+1 >= len(d) || d[p] != '"' {
		return -1, p
	}
	switch d[p+1] {
	case 'n':
		if hasLit(d, p, `"name":`) {
			return fieldName, p + 7
		}
	case 'c':
		if hasLit(d, p, `"cat":`) {
			return fieldCat, p + 6
		}
	case 'p':
		if hasLit(d, p, `"ph":`) {
			return fieldPh, p + 5
		}
		if hasLit(d, p, `"pid":`) {
			return fieldPid, p + 6
		}
	case 't':
		if hasLit(d, p, `"ts":`) {
			return fieldTS, p + 5
		}
		if hasLit(d, p, `"tid":`) {
			return fieldTid, p + 6
		}
	case 'd':
		if hasLit(d, p, `"dur":`) {
			return fieldDur, p + 6
		}
	case 'i':
		if hasLit(d, p, `"id":`) {
			return fieldID, p + 5
		}
	case 's':
		if hasLit(d, p, `"s":`) {
			return fieldS, p + 4
		}
	case 'a':
		if hasLit(d, p, `"args":`) {
			return fieldArgs, p + 7
		}
	}
	return -1, p
}

// hasLit reports whether d[p:] starts with lit.
func hasLit(d []byte, p int, lit string) bool {
	return len(d)-p >= len(lit) && string(d[p:p+len(lit)]) == lit
}

// compactString reads the plain ASCII string at d[p] into dst, as
// stringField does, and returns the index past it.
func compactString(d []byte, p int, dst *[]byte) (int, bool) {
	j := plainString(d, p)
	if j == 0 {
		return p, false
	}
	*dst = d[p+1 : j-1]
	return j, true
}

// compactInt reads the unsigned integer at d[p], of at most 18 digits
// with no leading zero, into dst as intField would. The caller rejects
// a '.', 'e' or 'E' after it.
func compactInt(d []byte, p int, dst *int) (int, bool) {
	i, m, k := decimalDigits(d, p, 0)
	if k == 0 || k > 1 && d[p] == '0' {
		return p, false
	}
	n, ok := jnum{mant: m, digits: k}.fastInt()
	if !ok || int64(int(n)) != n {
		return p, false
	}
	*dst = int(n)
	return i, true
}

// compactFloat reads the unsigned decimal at d[p], with no leading
// zero, no exponent and at most 15 digits, into dst as floatField
// would. The caller rejects an 'e' or 'E' after it.
func compactFloat(d []byte, p int, dst *float64, has *bool) (int, bool) {
	i, m, k := decimalDigits(d, p, 0)
	if k == 0 || k > 1 && d[p] == '0' {
		return p, false
	}
	frac := 0
	if i < len(d) && d[i] == '.' {
		if i, m, frac = decimalDigits(d, i+1, m); frac == 0 {
			return p, false
		}
	}
	f, ok := jnum{mant: m, digits: k + frac, frac: frac}.fastFloat()
	if !ok {
		return p, false
	}
	*dst, *has = f, true
	return i, true
}

// compactArgs reads the object at d[p] when it has members and they
// are plain ASCII strings on both sides, and returns the index past it.
func compactArgs(d []byte, p int) (int, bool) {
	if p >= len(d) || d[p] != '{' {
		return p, false
	}
	p++
	for {
		j := plainString(d, p)
		if j == 0 || j >= len(d) || d[j] != ':' {
			return p, false
		}
		if j = plainString(d, j+1); j == 0 || j >= len(d) {
			return p, false
		}
		switch d[j] {
		case '}':
			return j + 1, true
		case ',':
			p = j + 1
		default:
			return p, false
		}
	}
}

// eventField returns the field key decodes into. Keys that are not
// plain ASCII fold case through keyIs.
func eventField(key jstr) int {
	if !key.ascii {
		for f, name := range eventFields {
			if keyIs(key, name) {
				return f
			}
		}
		return fieldOther
	}
	return asciiField(key.raw[1 : len(key.raw)-1])
}

// asciiField returns the field the ASCII key k decodes into. A field
// name is all lower-case letters, and an ASCII byte ORed with 0x20
// (ASCII's case bit) equals a lower-case letter only when it is that
// letter in either case. So k matches a name, as keyIs would have it,
// exactly when it has the name's length and its ORed bytes spell the
// name; packed into one word, they pick the field.
func asciiField(k []byte) int {
	var w uint32
	switch len(k) {
	case 2:
		w = uint32(k[0]|0x20)<<8 | uint32(k[1]|0x20)
	case 3:
		w = uint32(k[0]|0x20)<<16 | uint32(k[1]|0x20)<<8 | uint32(k[2]|0x20)
	case 4:
		w = uint32(k[0]|0x20)<<24 | uint32(k[1]|0x20)<<16 | uint32(k[2]|0x20)<<8 | uint32(k[3]|0x20)
	}
	switch w {
	case 'n'<<24 | 'a'<<16 | 'm'<<8 | 'e':
		return fieldName
	case 'c'<<16 | 'a'<<8 | 't':
		return fieldCat
	case 'p'<<8 | 'h':
		return fieldPh
	case 'p'<<16 | 'i'<<8 | 'd':
		return fieldPid
	case 't'<<16 | 'i'<<8 | 'd':
		return fieldTid
	case 't'<<8 | 's':
		return fieldTS
	case 'd'<<16 | 'u'<<8 | 'r':
		return fieldDur
	case 'i'<<8 | 'd':
		return fieldID
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
	if i, j := v.pos, plainString(v.data, v.pos); j > 0 {
		*dst, v.pos = v.data[i+1:j-1], j
		return nil
	}
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
	start := v.pos
	num, err := v.number()
	if err != nil {
		return err
	}
	n, ok := num.fastInt()
	if !ok {
		n, err = strconv.ParseInt(string(v.data[start:v.pos]), 10, 64)
	}
	if err != nil || int64(int(n)) != n {
		return fmt.Errorf("parse: number %s at offset %d is not an int", v.data[start:v.pos], start)
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
	start := v.pos
	num, err := v.number()
	if err != nil {
		return err
	}
	f, ok := num.fastFloat()
	if !ok {
		if f, err = strconv.ParseFloat(string(v.data[start:v.pos]), 64); err != nil {
			return fmt.Errorf("parse: number %s at offset %d is not a float64", v.data[start:v.pos], start)
		}
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
	// tidTS holds the last ts of each track with pid 0 and a tid below
	// its length, which covers every track WriteChrome writes; it is -Inf
	// before the track's first event, which no parsed ts lies below.
	// lastTS holds the other tracks'.
	tidTS  [1024]float64
	lastTS map[[2]int]float64
	// Async spans begun and not yet ended, counted per (cat, name, id),
	// where ids match as raw JSON bytes. spans keys an id that plainID
	// reads by its value, beside the index of cat\x00name in names, so
	// a begin allocates nothing once its cat and name have been seen;
	// open keys any other id by the string cat\x00name\x00id.
	names map[string]int32
	spans map[spanKey]int
	open  map[string]int
	key   []byte
}

// spanKey names an async span whose id plainID reads.
type spanKey struct {
	name   int32 // cat\x00name's index in rules.names
	quoted bool  // the id is a JSON string
	id     int64
}

// plainID reads a raw id that is a decimal integer with one spelling,
// bare or as a JSON string: an optional minus sign, then 0 or 1–18
// digits with no leading zero, and not -0. Distinct such ids have
// distinct values, so keying them by value keeps ids matching as raw
// bytes.
func plainID(raw []byte) (quoted bool, v int64, ok bool) {
	if len(raw) >= 2 && raw[0] == '"' {
		quoted, raw = true, raw[1:len(raw)-1]
	}
	digits := raw
	neg := len(raw) > 0 && raw[0] == '-'
	if neg {
		digits = raw[1:]
	}
	if len(digits) == 0 || len(digits) > 18 || (digits[0] == '0' && (len(digits) > 1 || neg)) {
		return false, 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false, 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return quoted, v, true
}

// span counts e's async span as begun, or as ended unless begin is
// set, and reports false for an end with no span open.
func (r *rules) span(e *chromeEvent, begin bool) bool {
	r.key = append(r.key[:0], e.cat...)
	r.key = append(r.key, 0)
	r.key = append(r.key, e.name...)
	quoted, id, ok := plainID(e.id)
	if !ok {
		r.key = append(r.key, 0)
		r.key = append(r.key, e.id...)
		return count(r.open, string(r.key), begin)
	}
	name, seen := r.names[string(r.key)]
	if !seen {
		name = int32(len(r.names))
		r.names[string(r.key)] = name
	}
	return count(r.spans, spanKey{name: name, quoted: quoted, id: id}, begin)
}

// count adds a begin or an end to k's count in m, dropping k when its
// count returns to zero, and reports false for an end with none open.
func count[K comparable](m map[K]int, k K, begin bool) bool {
	n := m[k]
	switch {
	case begin:
		m[k] = n + 1
	case n == 0:
		return false
	case n == 1:
		delete(m, k)
	default:
		m[k] = n - 1
	}
	return true
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
		if !r.span(e, e.ph[0] == 'b') {
			return fmt.Errorf("event %d (%s): async end without begin", i, e.name)
		}
	case "i":
		if !e.hasTS {
			return fmt.Errorf("event %d (%s): instant missing ts", i, e.name)
		}
	default:
		return fmt.Errorf("event %d (%s): unknown phase %q", i, e.name, e.ph)
	}
	if e.pid == 0 && uint(e.tid) < uint(len(r.tidTS)) {
		prev := &r.tidTS[e.tid]
		if e.ts < *prev {
			return r.regression(i, e, *prev)
		}
		*prev = e.ts
		return nil
	}
	track := [2]int{e.pid, e.tid}
	if prev, ok := r.lastTS[track]; ok && e.ts < prev {
		return r.regression(i, e, prev)
	}
	r.lastTS[track] = e.ts
	return nil
}

func (r *rules) regression(i int, e *chromeEvent, prev float64) error {
	return fmt.Errorf("event %d (%s): ts %g regresses below %g on track %d/%d",
		i, e.name, e.ts, prev, e.pid, e.tid)
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

// openObject consumes the '{' at pos and reports whether a member
// follows.
func (s *scanner) openObject() (more bool, err error) {
	if err := s.open(); err != nil {
		return false, err
	}
	return !s.close('}'), nil
}

// key scans a member's key and the colon after it, reading a plain
// ASCII key with the colon right after it in place.
func (s *scanner) key() (jstr, error) {
	if i, j := s.pos, plainString(s.data, s.pos); j > 0 && j < len(s.data) && s.data[j] == ':' {
		s.pos = j + 1
		return jstr{raw: s.data[i:j], plain: true, ascii: true}, nil
	}
	if s.peek() != '"' {
		return jstr{}, s.syntaxError()
	}
	key, err := s.str()
	if err != nil {
		return jstr{}, err
	}
	if s.peek() != ':' {
		return jstr{}, s.syntaxError()
	}
	s.pos++
	return key, nil
}

// nextMember consumes the ',' or the closing byte c after an object
// member or array element, and reports whether another follows.
func (s *scanner) nextMember(c byte) (more bool, err error) {
	switch s.peek() {
	case ',':
		s.pos++
		return true, nil
	case c:
		s.pos++
		s.depth--
		return false, nil
	}
	return false, s.syntaxError()
}

// object scans the object at pos, calling member for each key with the
// scanner at that key's value; member must consume the value.
func (s *scanner) object(member func(key jstr) error) error {
	more, err := s.openObject()
	for more && err == nil {
		var key jstr
		if key, err = s.key(); err != nil {
			break
		}
		if err = member(key); err != nil {
			break
		}
		more, err = s.nextMember('}')
	}
	return err
}

// array scans the array at pos, calling elem with the scanner at each
// element; elem must consume the element.
func (s *scanner) array(elem func() error) error {
	if err := s.open(); err != nil {
		return err
	}
	more := !s.close(']')
	var err error
	for more && err == nil {
		if err = elem(); err != nil {
			break
		}
		more, err = s.nextMember(']')
	}
	return err
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

// jnum is a scanned number literal, with the digits it holds read as
// one integer along the way.
type jnum struct {
	mant   uint64 // the digits, point dropped; wraps past 19 of them
	digits int    // digits before the exponent
	frac   int    // digits after the decimal point
	neg    bool
	exp    bool // the literal has an exponent
}

// number scans a number literal.
func (s *scanner) number() (jnum, error) {
	d, i := s.data, s.pos
	n := jnum{neg: i < len(d) && d[i] == '-'}
	if n.neg {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
		n.digits = 1
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i, n.mant, n.digits = decimalDigits(d, i, 0)
	default:
		s.pos = i
		return jnum{}, s.syntaxError()
	}
	if i < len(d) && d[i] == '.' {
		i, n.mant, n.frac = decimalDigits(d, i+1, n.mant)
		if n.frac == 0 {
			s.pos = i
			return jnum{}, s.syntaxError()
		}
		n.digits += n.frac
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		n.exp = true
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		var k int
		if i, _, k = decimalDigits(d, i, 0); k == 0 {
			s.pos = i
			return jnum{}, s.syntaxError()
		}
	}
	s.pos = i
	return n, nil
}

// decimalDigits reads the run of decimal digits at d[i:] onto m and
// returns the index after it, the new m and the run's length.
func decimalDigits(d []byte, i int, m uint64) (int, uint64, int) {
	start := i
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		m = m*10 + uint64(d[i]-'0')
		i++
	}
	return i, m, i - start
}

// fastInt returns the literal's value when it is an integer of at most
// 18 digits, which an int64 holds exactly. ok is false for any other
// literal, which strconv.ParseInt must decide.
func (n jnum) fastInt() (v int64, ok bool) {
	if n.frac > 0 || n.exp || n.digits > 18 {
		return 0, false
	}
	v = int64(n.mant)
	if n.neg {
		v = -v
	}
	return v, true
}

// pow10 holds 10^0 through 10^14, each exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14}

// fastFloat returns the literal's value when it is a decimal of at most
// 15 digits with no exponent. Its digits then form an integer m below
// 10^15 < 2^53, and it has k <= 14 fraction digits, so m and 10^k are
// exact float64s and the division m/10^k, which IEEE 754 rounds
// correctly, is the float64 nearest the literal: the value
// strconv.ParseFloat returns, sign of zero included. ok is false for
// any other literal, which ParseFloat must decide.
func (n jnum) fastFloat() (f float64, ok bool) {
	if n.exp || n.digits > 15 {
		return 0, false
	}
	f = float64(n.mant) / pow10[n.frac]
	if n.neg {
		f = -f
	}
	return f, true
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

// plainASCII marks the bytes a JSON string holds as they are: ASCII
// from the space up, other than the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainString returns the index just past the string literal at d[i]
// when it is all plain ASCII, and 0 when d[i] starts anything else.
func plainString(d []byte, i int) int {
	if i >= len(d) || d[i] != '"' {
		return 0
	}
	for i++; i < len(d) && plainASCII[d[i]]; i++ {
	}
	if i < len(d) && d[i] == '"' {
		return i + 1
	}
	return 0
}

// str scans the string literal at pos. A plain ASCII string, the
// common case, takes plainString's tight loop.
func (s *scanner) str() (jstr, error) {
	if i, j := s.pos, plainString(s.data, s.pos); j > 0 {
		s.pos = j
		return jstr{raw: s.data[i:j], plain: true, ascii: true}, nil
	}
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
