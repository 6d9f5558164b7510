package chat

import (
	"errors"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cloudsim/sortutil"
)

// The room document and archived chunks are rewritten on every send,
// and encoding/json was most of a request's host time. They go through
// the hand-written codec below instead. The encoder writes exactly the
// bytes json.Marshal writes: a sealed object's size is a simulated
// input (S3 transfer time, storage and the bill), so not one byte may
// move. The decoder accepts exactly the encoder's output and rejects
// everything else; only saveRoom and archiveChunk write these objects.

// errRoomDoc reports a room document or chunk not in canonical form.
var errRoomDoc = errors.New("chat: room document not in canonical form")

// entryOverhead bounds one encoded entry's bytes beyond its two
// strings: {"from":"","body":"","seq":} plus a separating comma and
// the widest int.
const entryOverhead = 29 + 20

// roomDocSize bounds len(appendRoomDoc(nil, doc)) when no string needs
// escaping, so a buffer sized from it is never regrown in practice.
func roomDocSize(doc *roomDoc) int {
	n := 128 + stringsSize(doc.Members) + stringsSize(doc.Present) + entriesSize(doc.Entries)
	for k, v := range doc.LastID {
		n += len(k) + len(v) + 6
	}
	return n
}

// appendRoomDoc appends doc's encoding as json.Marshal writes it.
func appendRoomDoc(b []byte, doc *roomDoc) []byte {
	b = append(b, `{"chunks":`...)
	b = strconv.AppendInt(b, int64(doc.Chunks), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, int64(doc.Messages), 10)
	b = append(b, `,"members":`...)
	b = appendStrings(b, doc.Members)
	b = append(b, `,"present":`...)
	b = appendStrings(b, doc.Present)
	b = append(b, `,"entries":`...)
	b = appendEntries(b, doc.Entries)
	if len(doc.LastID) > 0 { // omitempty
		b = append(b, `,"last_id":{`...)
		for i, k := range sortutil.SortedKeys(doc.LastID) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendString(b, doc.LastID[k])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func stringsSize(ss []string) int {
	n := 2
	for _, s := range ss {
		n += len(s) + 3
	}
	return n
}

// entriesSize bounds len(appendEntries(nil, entries)) as roomDocSize
// does.
func entriesSize(entries []historyEntry) int {
	n := 2
	for _, e := range entries {
		n += len(e.From) + len(e.Body) + entryOverhead
	}
	return n
}

// appendStrings writes a nil slice as null and an empty one as [].
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendEntries appends an entry array (an archived chunk, or the live
// tail) as json.Marshal writes it.
func appendEntries(b []byte, entries []historyEntry) []byte {
	if entries == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = appendString(b, e.From)
		b = append(b, `,"body":`...)
		b = appendString(b, e.Body)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, int64(e.Seq), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes json.Marshal writes as themselves: printable
// ASCII other than the quote, the backslash and the HTML characters <,
// > and &. A table, because the codec tests it once per byte of every
// message in the live tail.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString writes s as a JSON string with json.Marshal's escaping:
// short escapes for \b \f \n \r \t, \u00XX for other control bytes and
// for < > &, \ufffd for each invalid UTF-8 byte, and \u2028/\u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; jsonSafe[c] {
			i++
			continue
		} else if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// unmarshalRoomDoc decodes a document appendRoomDoc wrote. Strings
// without escapes are substrings of s, so a decoded entry costs no
// allocation of its own.
func unmarshalRoomDoc(s string) (*roomDoc, error) {
	p := docScanner{s: s, ok: true}
	doc := &roomDoc{}
	p.lit(`{"chunks":`)
	doc.Chunks = p.int()
	p.lit(`,"messages":`)
	doc.Messages = p.int()
	p.lit(`,"members":`)
	doc.Members = p.stringArray()
	p.lit(`,"present":`)
	doc.Present = p.stringArray()
	p.lit(`,"entries":`)
	doc.Entries = p.entryArray()
	if p.skip(`,"last_id":{`) {
		// Keys strictly ascending, at least one: json.Marshal sorts them
		// and omits an empty map.
		doc.LastID = make(map[string]string)
		prev := ""
		for {
			k := p.str()
			p.lit(":")
			v := p.str()
			if !p.ok || (len(doc.LastID) > 0 && k <= prev) {
				return nil, errRoomDoc
			}
			doc.LastID[k] = v
			prev = k
			if !p.skip(",") {
				break
			}
		}
		p.lit("}")
	}
	p.lit("}")
	if !p.ok || p.pos != len(s) {
		return nil, errRoomDoc
	}
	return doc, nil
}

// unmarshalEntries decodes an archived chunk appendEntries wrote.
func unmarshalEntries(s string) ([]historyEntry, error) {
	p := docScanner{s: s, ok: true}
	entries := p.entryArray()
	if !p.ok || p.pos != len(s) {
		return nil, errRoomDoc
	}
	return entries, nil
}

// docScanner is a single-pass reader of the canonical encoding. Any
// mismatch clears ok, after which every method is a no-op, so callers
// check ok once at the end.
type docScanner struct {
	s   string
	pos int
	ok  bool
}

// lit consumes the literal l, or fails.
func (p *docScanner) lit(l string) {
	if !p.skip(l) {
		p.ok = false
	}
}

// skip consumes l if it comes next.
func (p *docScanner) skip(l string) bool {
	if p.ok && strings.HasPrefix(p.s[p.pos:], l) {
		p.pos += len(l)
		return true
	}
	return false
}

// int reads an integer in strconv.AppendInt form: no leading zeros,
// no "-0", within int range.
func (p *docScanner) int() int {
	if !p.ok {
		return 0
	}
	i := p.pos
	if i < len(p.s) && p.s[i] == '-' {
		i++
	}
	for i < len(p.s) && p.s[i] >= '0' && p.s[i] <= '9' {
		i++
	}
	lit := p.s[p.pos:i]
	n, err := strconv.Atoi(lit)
	var buf [20]byte
	if err != nil || string(strconv.AppendInt(buf[:0], int64(n), 10)) != lit {
		p.ok = false
		return 0
	}
	p.pos = i
	return n
}

// stringArray reads null (nil) or a string array ([] is empty, not nil).
func (p *docScanner) stringArray() []string {
	if p.skip("null") {
		return nil
	}
	p.lit("[")
	if p.skip("]") {
		return []string{}
	}
	var buf [16]string
	out := buf[:0]
	for p.ok {
		out = append(out, p.str())
		if !p.skip(",") {
			break
		}
	}
	p.lit("]")
	if !p.ok {
		return nil
	}
	return append(make([]string, 0, len(out)), out...)
}

// entryArray reads null (nil) or an entry array ([] is empty, not nil).
func (p *docScanner) entryArray() []historyEntry {
	if p.skip("null") {
		return nil
	}
	p.lit("[")
	if !p.ok {
		return nil
	}
	// A raw `{"from":` starts an entry and nothing else: inside a
	// string the quote would be escaped. So this count sizes the slice
	// exactly.
	out := make([]historyEntry, 0, strings.Count(p.s[p.pos:], `{"from":`))
	if p.skip("]") {
		return out
	}
	for p.ok {
		var e historyEntry
		p.lit(`{"from":`)
		e.From = p.str()
		p.lit(`,"body":`)
		e.Body = p.str()
		p.lit(`,"seq":`)
		e.Seq = p.int()
		p.lit("}")
		out = append(out, e)
		if !p.skip(",") {
			break
		}
	}
	p.lit("]")
	return out
}

// str reads one JSON string in appendString's escaping. A string
// without escapes is returned as a substring of the input.
func (p *docScanner) str() string {
	if !p.ok || p.pos >= len(p.s) || p.s[p.pos] != '"' {
		p.ok = false
		return ""
	}
	start := p.pos + 1
	for i := start; i < len(p.s); {
		c := p.s[i]
		switch {
		case jsonSafe[c]:
			i++
		case c == '"':
			p.pos = i + 1
			return p.s[start:i]
		case c == '\\':
			return p.unescape(start, i)
		default:
			n := rawWidth(p.s[i:])
			if n == 0 {
				p.ok = false
				return ""
			}
			i += n
		}
	}
	p.ok = false
	return ""
}

// rawWidth returns the byte length of the character at the start of s
// if appendString writes it as itself, or 0 if appendString escapes it.
func rawWidth(s string) int {
	if jsonSafe[s[0]] {
		return 1
	}
	if s[0] < utf8.RuneSelf {
		return 0
	}
	r, size := utf8.DecodeRuneInString(s)
	if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
		return 0
	}
	return size
}

// unescape finishes a string that starts at start and has its first
// escape at i. It accepts only the escapes appendString writes, except
// \ufffd: decoding that gives a valid U+FFFD, which appendString writes
// raw, so accepting it would break decode-encode identity. (Every
// string stored in a room arrived through the XMPP decoder, which
// rejects invalid UTF-8, so appendString never writes \ufffd here.)
func (p *docScanner) unescape(start, i int) string {
	s := p.s
	out := make([]byte, 0, i-start+16)
	out = append(out, s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return string(out)
		case c == '\\':
			if i+1 >= len(s) {
				p.ok = false
				return ""
			}
			switch e := s[i+1]; e {
			case '"', '\\':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := canonicalU(s[i+2:])
				if !ok {
					p.ok = false
					return ""
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				p.ok = false
				return ""
			}
			i += 2
		default:
			n := rawWidth(s[i:])
			if n == 0 {
				p.ok = false
				return ""
			}
			out = append(out, s[i:i+n]...)
			i += n
		}
	}
	p.ok = false
	return ""
}

// canonicalU decodes the four hex digits after \u when appendString
// would have written them: \u00XX (lower-case hex) for a control byte
// without a short escape or for < > &, and \u2028/\u2029.
func canonicalU(h string) (rune, bool) {
	if len(h) < 4 {
		return 0, false
	}
	switch h[:4] {
	case "2028":
		return '\u2028', true
	case "2029":
		return '\u2029', true
	}
	if h[0] != '0' || h[1] != '0' {
		return 0, false
	}
	hi, lo := strings.IndexByte(hexDigits, h[2]), strings.IndexByte(hexDigits, h[3])
	if hi < 0 || lo < 0 {
		return 0, false
	}
	c := byte(hi<<4 | lo)
	switch c {
	case '\b', '\f', '\n', '\r', '\t':
		return 0, false
	case '<', '>', '&':
		return rune(c), true
	}
	return rune(c), c < ' '
}
