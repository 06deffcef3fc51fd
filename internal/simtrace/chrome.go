package simtrace

import (
	"io"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// controlTID is the Chrome thread id carrying TrackControl events;
// it sits far above any plausible core count.
const controlTID = 999

func tid(track int) int {
	if track < 0 {
		return controlTID
	}
	return track
}

// flushAt is the size at which WriteChrome hands its buffer to the
// writer.
const flushAt = 64 << 10

// WriteChrome serializes the tracer's events as Chrome trace-event
// JSON (the {"traceEvents":[...]} object form), loadable in Perfetto
// or chrome://tracing. Events are ordered by (TS, Seq) after the
// track-name metadata, and every field is rendered with a fixed
// format, so the output bytes are a pure function of the capture.
func WriteChrome(w io.Writer, t *Tracer) error {
	b := make([]byte, 0, flushAt+1024)
	b = append(b, "{\"traceEvents\":[\n"...)
	b = append(b, `{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"perfiso-sim"}}`...)
	for _, tr := range t.Tracks() {
		b = appendThreadName(b, tid(tr.ID), tr.Name)
	}
	b = appendThreadName(b, controlTID, "control")
	keys, mask := t.order()
	for _, k := range keys {
		b = t.appendRecord(b, t.at(int(k&mask)))
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "\n]}\n"...)
	_, err := w.Write(b)
	return err
}

func appendThreadName(b []byte, tid int, name string) []byte {
	b = append(b, ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":"`...)
	b = appendStr(b, name)
	return append(b, `"}}`...)
}

// appendRecord renders one event. The constant runs carry the quotes
// around the strings between them, which the string table holds
// escaped and unquoted.
func (t *Tracer) appendRecord(b []byte, r *record) []byte {
	s, v := t.unpack(r)
	b = append(b, ",\n{\"name\":\""...)
	b = append(b, t.strs.json(s.name)...)
	if s.cat != 0 {
		b = append(b, `","cat":"`...)
		b = append(b, t.strs.json(s.cat)...)
	}
	switch s.kind {
	case KindSlice:
		b = append(b, `","ph":"X","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(tid(v.track)), 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, int64(r.ts))
		b = append(b, `,"dur":`...)
		b = appendMicros(b, v.dur)
	case KindBegin, KindEnd:
		if s.kind == KindBegin {
			b = append(b, `","ph":"b","pid":0,"tid":`...)
		} else {
			b = append(b, `","ph":"e","pid":0,"tid":`...)
		}
		b = strconv.AppendInt(b, int64(tid(v.track)), 10)
		b = append(b, `,"id":"`...)
		b = strconv.AppendInt(b, v.dur, 10)
		b = append(b, `","ts":`...)
		b = appendMicros(b, int64(r.ts))
	case KindInstant:
		b = append(b, `","ph":"i","s":"t","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(tid(v.track)), 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, int64(r.ts))
	}
	if s.typ[0] != argNone {
		b = append(b, `,"args":{"`...)
		for i, typ := range s.typ {
			if typ == argNone {
				break
			}
			if i > 0 {
				b = append(b, `,"`...)
			}
			b = append(b, t.strs.json(s.key[i])...)
			b = append(b, `":"`...)
			b = appendArgValue(b, typ, v.num[i], &t.strs)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendArgValue renders an arg's value as the body of a JSON string,
// the form every arg takes in the export.
func appendArgValue(b []byte, typ argType, num int64, strs *strtab) []byte {
	switch typ {
	case argInt:
		return strconv.AppendInt(b, num, 10)
	case argBool:
		if num != 0 {
			return append(b, "true"...)
		}
		return append(b, "false"...)
	}
	return append(b, strs.json(uint16(num))...)
}

// appendStr appends s as the body of a JSON string, without quotes.
// Printable ASCII with no quote or backslash — every name the
// simulator emits — is copied verbatim; anything else takes
// appendEscaped.
func appendStr(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return appendEscaped(b, s)
		}
	}
	return append(b, s...)
}

// appendEscaped writes the bytes strconv.Quote would wherever those
// are valid JSON (\", \\, \b, \f, \n, \r, \t, \uXXXX and raw printable
// runes) and JSON escapes where they are not: \u00NN for the control
// bytes strconv renders as \a, \v or \xNN and for DEL, \ufffd for each
// invalid UTF-8 byte (as encoding/json does), and a surrogate pair for
// a non-printable rune above U+FFFF.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	for len(s) > 0 {
		r, width := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s)
		}
		s = s[width:]
		switch {
		case width == 1 && r == utf8.RuneError:
			b = append(b, `\ufffd`...)
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case strconv.IsPrint(r):
			b = utf8.AppendRune(b, r)
		case r == '\b':
			b = append(b, `\b`...)
		case r == '\f':
			b = append(b, `\f`...)
		case r == '\n':
			b = append(b, `\n`...)
		case r == '\r':
			b = append(b, `\r`...)
		case r == '\t':
			b = append(b, `\t`...)
		case r < 0x10000:
			b = append(b, '\\', 'u', hex[r>>12&0xf], hex[r>>8&0xf], hex[r>>4&0xf], hex[r&0xf])
		default:
			hi, lo := utf16.EncodeRune(r)
			b = append(b, '\\', 'u', hex[hi>>12&0xf], hex[hi>>8&0xf], hex[hi>>4&0xf], hex[hi&0xf])
			b = append(b, '\\', 'u', hex[lo>>12&0xf], hex[lo>>8&0xf], hex[lo>>4&0xf], hex[lo&0xf])
		}
	}
	return b
}

// appendMicros renders a sim timestamp (ns) as microseconds with fixed
// 3-decimal nanosecond precision — a deterministic decimal string.
// Negative times clamp to zero.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	r := ns % 1000
	return append(b, '.', byte('0'+r/100), byte('0'+r/10%10), byte('0'+r%10))
}
