package simtrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// ValidateChrome checks that data is a well-formed Chrome trace-event
// JSON object: known phases only, timestamps present where required,
// non-negative durations, per-track monotone non-decreasing
// timestamps, and every async end matching a previously opened begin
// (spans still open at end-of-capture are legal — they are queries in
// flight when the simulation stopped).
//
// It accepts exactly what decoding the file with encoding/json into a
// slice of events, then applying the rules, would. A file in the
// layout WriteChrome writes is read in one pass that applies the rules
// to each event as it goes by, without building the event list. A
// file in any other layout is decoded whole by encoding/json, which
// costs several times as long and allocates for every event.
func ValidateChrome(data []byte) error {
	if ok, err := readCompact(data); ok {
		return err
	}
	return decodeChrome(data)
}

// decodeChrome validates data of any layout: one json.Unmarshal into a
// slice of events, then the rules over each.
func decodeChrome(data []byte) error {
	var f struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Cat  string           `json:"cat"`
			Ph   string           `json:"ph"`
			Pid  int              `json:"pid"`
			Tid  int              `json:"tid"`
			TS   *float64         `json:"ts"`
			Dur  *float64         `json:"dur"`
			ID   *json.RawMessage `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return errors.New("no traceEvents")
	}
	r := newRules()
	for i, x := range f.TraceEvents {
		e := chromeEvent{name: []byte(x.Name), cat: []byte(x.Cat), ph: []byte(x.Ph), pid: x.Pid, tid: x.Tid}
		if x.TS != nil {
			e.ts, e.hasTS = *x.TS, true
		}
		if x.Dur != nil {
			e.dur, e.hasDur = *x.Dur, true
		}
		if x.ID != nil {
			e.id = *x.ID
		}
		if err := r.check(i, &e); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one trace event as the rules see it. The byte slices
// alias the input unless the JSON string had escapes or was not plain
// ASCII.
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

// The keys of the compact layout, each one bit of an element's key set.
const (
	fieldName = iota
	fieldCat
	fieldPh
	fieldPid
	fieldTid
	fieldTS
	fieldDur
	fieldID
	fieldS
	fieldArgs
)

// maxHeads bounds the event heads one pass memoizes.
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

// compactReader is the one-pass reader of WriteChrome's layout.
type compactReader struct {
	data   []byte
	pos    int
	heads  [maxHeads]compactHead // the head memo, most hit first
	nheads int
}

// readCompact validates data when it is in the layout WriteChrome
// writes, and reports whether it was: {"traceEvents":[, then compact
// elements, each after an optional newline and separated by commas,
// then an optional newline, ]} and trailing white space. It applies
// the rules to each element as it is read, and keeps reading past the
// first violation, so that a file outside the layout still goes to
// encoding/json, whose verdict on its syntax comes first. At the first
// byte outside the layout ok is false and err means nothing.
func readCompact(data []byte) (ok bool, err error) {
	const open = `{"traceEvents":[`
	if !hasLit(data, 0, open) {
		return false, nil
	}
	c := &compactReader{data: data, pos: len(open)}
	r := newRules()
	var e chromeEvent
	for i := 0; ; i++ {
		if c.pos < len(data) && data[c.pos] == '\n' {
			c.pos++
		}
		if !c.element(&e) {
			return false, nil
		}
		if err == nil {
			err = r.check(i, &e)
		}
		if c.pos >= len(data) || data[c.pos] != ',' {
			break
		}
		c.pos++
	}
	p := c.pos
	if p < len(data) && data[p] == '\n' {
		p++
	}
	if !hasLit(data, p, "]}") {
		return false, nil
	}
	for p += 2; p < len(data); p++ {
		switch data[p] {
		case ' ', '\t', '\n', '\r':
		default:
			return false, nil
		}
	}
	return true, err
}

// element reads the element at pos into e when it is in the compact
// layout, exactly as encoding/json would decode it, and reports
// whether it was. The layout is one object with no white space inside,
// whose keys are lower-case, come from name, cat, ph, pid, tid, ts,
// dur, id, s and args, and appear at most once each; its pid and tid
// are unsigned integers of at most 18 digits with no leading zero, ts
// and dur unsigned decimals of at most 15 digits with no exponent, id
// and s strings, and args a non-empty object of strings. A plain ASCII
// string is read in place; any other is found by its closing quote and
// handed to encoding/json alone.
//
// A head, the bytes through the "tid" key, repeats verbatim across one
// call site's events; an element whose head matches a memoized one
// byte for byte takes that head's fields and key set and is read on
// from its tid value.
func (c *compactReader) element(e *chromeEvent) bool {
	d, start := c.data, c.pos
	if start >= len(d) || d[start] != '{' {
		return false
	}
	e.reset()
	p, keys, f := start+1, uint16(0), -1
	if h := c.head(d[start:]); h != nil {
		*e, keys, p, f = h.ev, h.keys, start+len(h.head), fieldTid
	}
	for {
		if f < 0 {
			if f, p = compactKey(d, p); f < 0 || keys&(1<<f) != 0 {
				return false
			}
			keys |= 1 << f
			if f == fieldTid && c.nheads < maxHeads {
				c.heads[c.nheads] = compactHead{head: d[start:p], ev: *e, keys: keys}
				c.nheads++
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
			if j := checkedString(d, p); j > 0 {
				e.id, p, ok = d[p:j], j, true
			}
		case fieldS:
			if j := checkedString(d, p); j > 0 {
				p, ok = j, true
			}
		case fieldArgs:
			p, ok = compactArgs(d, p)
		}
		if !ok || p >= len(d) || d[p] != ',' && d[p] != '}' {
			return false
		}
		if d[p] == '}' {
			c.pos = p + 1
			return true
		}
		p, f = p+1, -1
	}
}

// head returns the memoized head that rest starts with, or nil. A hit
// moves its head ahead of the heads hit less often, so the memo stays
// in the order of its call sites' event counts and the most common
// head is tried first.
func (c *compactReader) head(rest []byte) *compactHead {
	for i := range c.heads[:c.nheads] {
		h := &c.heads[i]
		if len(rest) <= len(h.head) || string(rest[:len(h.head)]) != string(h.head) {
			continue
		}
		h.hits++
		for ; i > 0 && c.heads[i-1].hits < h.hits; i-- {
			c.heads[i-1], c.heads[i] = c.heads[i], c.heads[i-1]
			h = &c.heads[i-1]
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

// stringEnd returns the index just past the closing quote of the
// string literal at d[i], skipping the byte after each backslash, and
// 0 when d[i] is not a quote or the literal has no end. It checks
// nothing in between.
func stringEnd(d []byte, i int) int {
	if i >= len(d) || d[i] != '"' {
		return 0
	}
	for i++; i < len(d); i++ {
		switch d[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return 0
}

// checkedString returns the index just past the string literal at
// d[i] when encoding/json accepts it, and 0 otherwise.
func checkedString(d []byte, i int) int {
	if j := plainString(d, i); j > 0 {
		return j
	}
	if j := stringEnd(d, i); j > 0 && json.Valid(d[i:j]) {
		return j
	}
	return 0
}

// compactString reads the string literal at d[p] into dst, as
// encoding/json decodes it, and returns the index past it. A plain
// ASCII string is its own value, which dst aliases.
func compactString(d []byte, p int, dst *[]byte) (int, bool) {
	if j := plainString(d, p); j > 0 {
		*dst = d[p+1 : j-1]
		return j, true
	}
	j := stringEnd(d, p)
	var s string
	if j == 0 || json.Unmarshal(d[p:j], &s) != nil {
		return p, false
	}
	*dst = []byte(s)
	return j, true
}

// compactArgs reads the object at d[p] when it has members and they
// are strings on both sides, and returns the index past it.
func compactArgs(d []byte, p int) (int, bool) {
	if p >= len(d) || d[p] != '{' {
		return p, false
	}
	for i := p + 1; ; i++ {
		j := checkedString(d, i)
		if j == 0 || j >= len(d) || d[j] != ':' {
			return p, false
		}
		if i = checkedString(d, j+1); i == 0 || i >= len(d) {
			return p, false
		}
		switch d[i] {
		case '}':
			return i + 1, true
		case ',':
		default:
			return p, false
		}
	}
}

// compactInt reads the unsigned integer at d[p], of at most 18 digits
// with no leading zero, into dst: 18 digits fit an int64 exactly, so
// the value is strconv.ParseInt's. The caller rejects a '.', 'e' or 'E'
// after it.
func compactInt(d []byte, p int, dst *int) (int, bool) {
	i, m, k := decimalDigits(d, p, 0)
	if k == 0 || k > 18 || k > 1 && d[p] == '0' || uint64(int(m)) != m {
		return p, false
	}
	*dst = int(m)
	return i, true
}

// pow10 holds 10^0 through 10^14, each exact in a float64.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14}

// compactFloat reads the unsigned decimal at d[p], with no leading
// zero, no exponent and at most 15 digits, into dst. Its digits form
// an integer m below 10^15 < 2^53, and it has k <= 14 fraction digits,
// so m and 10^k are exact float64s and the division m/10^k, which IEEE
// 754 rounds correctly, is the float64 nearest the literal: the value
// strconv.ParseFloat returns. The caller rejects an 'e' or 'E' after
// it.
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
	if k+frac > 15 {
		return p, false
	}
	*dst, *has = float64(m)/pow10[frac], true
	return i, true
}

// decimalDigits reads the run of decimal digits at d[i:] onto m and
// returns the index after it, the new m and the run's length. m wraps
// past 19 digits, more than either caller reads.
func decimalDigits(d []byte, i int, m uint64) (int, uint64, int) {
	start := i
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		m = m*10 + uint64(d[i]-'0')
		i++
	}
	return i, m, i - start
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

func newRules() *rules {
	r := &rules{
		lastTS: map[[2]int]float64{},
		names:  map[string]int32{},
		spans:  map[spanKey]int{},
		open:   map[string]int{},
	}
	for i := range r.tidTS {
		r.tidTS[i] = math.Inf(-1)
	}
	return r
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
