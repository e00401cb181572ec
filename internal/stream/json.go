package stream

import (
	"strconv"
	"unicode/utf8"

	"cind/internal/detect"
	"cind/internal/instance"
)

// The NDJSON and JSONArray encodings are written by the appenders below,
// not by encoding/json: they produce exactly the bytes json.Marshal writes
// for a Violation (member order, HTML escaping and all) without the
// per-violation Convert copy and reflection. The tests hold them to
// encoding/json byte for byte.

// jsonSafe[b] reports whether encoding/json, with HTML escaping on, copies
// the ASCII byte b through unescaped: printable ASCII and DEL, except '"',
// '\\', '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped as
// encoding/json escapes it: '"' and '\\' with a backslash; \b \f \n \r \t
// short; other control bytes and '<' '>' '&' as \u00XX; invalid UTF-8 as
// \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONHead appends a violation object's members up to the witness
// array's opening: {"kind":…,"constraint":…,"relation":…,"row":N,"witness":
func appendJSONHead(dst []byte, kind, constraint, relation string, row int) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendJSONString(dst, kind)
	dst = append(dst, `,"constraint":`...)
	dst = appendJSONString(dst, constraint)
	dst = append(dst, `,"relation":`...)
	dst = appendJSONString(dst, relation)
	dst = append(dst, `,"row":`...)
	dst = strconv.AppendInt(dst, int64(row), 10)
	return append(dst, `,"witness":`...)
}

// appendJSONViolation appends the JSON object json.Marshal(Convert(*v))
// would produce, reading the witness tuples through AsCFD/AsCIND as
// appendBinaryViolation does. Convert never leaves a witness or a tuple
// nil, so both are always arrays here.
func appendJSONViolation(dst []byte, v *detect.Violation) []byte {
	dst = appendJSONHead(dst, v.Kind().String(), v.ConstraintID(), v.Relation(), v.Row())
	dst = append(dst, '[')
	if cv, ok := v.AsCFD(); ok {
		dst = appendJSONTuple(dst, cv.T1)
		dst = append(dst, ',')
		dst = appendJSONTuple(dst, cv.T2)
	} else if iv, ok := v.AsCIND(); ok {
		dst = appendJSONTuple(dst, iv.T)
	}
	return append(dst, "]}"...)
}

func appendJSONTuple(dst []byte, t instance.Tuple) []byte {
	dst = append(dst, '[')
	for i, val := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, val.String())
	}
	return append(dst, ']')
}

// appendJSONWire appends the JSON object json.Marshal(v) would produce for
// an already-decoded wire violation — the router's relay path. A nil
// witness or tuple is written as null, as encoding/json writes a nil slice.
func appendJSONWire(dst []byte, v *Violation) []byte {
	dst = appendJSONHead(dst, v.Kind, v.Constraint, v.Relation, v.Row)
	if v.Witness == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, t := range v.Witness {
		if i > 0 {
			dst = append(dst, ',')
		}
		if t == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, val := range t {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, val)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}
