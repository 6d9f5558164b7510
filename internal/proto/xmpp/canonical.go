package xmpp

import (
	"encoding/xml"
	"strings"
	"unicode/utf8"
)

// The chat function encodes and decodes a stanza or more on every
// request, and encoding/xml's reflection was a large share of its host
// time. Encode therefore writes *Message, *Presence and *IQ by hand,
// byte for byte what xml.Marshal writes (payload sizes are simulated
// inputs: they drive transfer time and the bill). Decode first tries
// the exact form Encode writes and hands anything else to encoding/xml,
// so every other well-formed stanza still decodes as before.

// Escapes, as encoding/xml's EscapeString writes them.
const (
	escQuot = "&#34;"
	escApos = "&#39;"
	escAmp  = "&amp;"
	escLT   = "&lt;"
	escGT   = "&gt;"
	escTab  = "&#x9;"
	escNL   = "&#xA;"
	escCR   = "&#xD;"
	escFFFD = "\uFFFD"
)

// stanzaOverhead bounds the tags and attribute names around a stanza's
// field values.
const stanzaOverhead = 128

func (m *Message) appendXML(b []byte) []byte {
	b = append(b, "<message"...)
	b = appendAttr(b, "from", m.From, true)
	b = appendAttr(b, "to", m.To, true)
	b = appendAttr(b, "type", m.Type, true)
	b = appendAttr(b, "id", m.ID, true)
	b = append(b, '>')
	b = appendElem(b, "body", m.Body)
	return append(b, "</message>"...)
}

func (p *Presence) appendXML(b []byte) []byte {
	b = append(b, "<presence"...)
	b = appendAttr(b, "from", p.From, true)
	b = appendAttr(b, "to", p.To, true)
	b = appendAttr(b, "type", p.Type, true)
	b = append(b, '>')
	b = appendElem(b, "status", p.Status)
	return append(b, "</presence>"...)
}

func (iq *IQ) appendXML(b []byte) []byte {
	b = append(b, "<iq"...)
	b = appendAttr(b, "from", iq.From, true)
	b = appendAttr(b, "to", iq.To, true)
	b = appendAttr(b, "type", iq.Type, false)
	b = appendAttr(b, "id", iq.ID, false)
	b = append(b, '>')
	if iq.Bind != nil {
		b = append(b, "<bind>"...)
		b = appendElem(b, "resource", iq.Bind.Resource)
		b = appendElem(b, "jid", iq.Bind.JID)
		b = append(b, "</bind>"...)
	}
	if iq.Session != nil {
		b = append(b, "<session></session>"...)
	}
	if iq.Error != nil {
		b = append(b, "<error"...)
		b = appendAttr(b, "type", iq.Error.Type, true)
		b = append(b, '>')
		b = appendElem(b, "text", iq.Error.Text)
		b = append(b, "</error>"...)
	}
	return append(b, "</iq>"...)
}

func (m *Message) size() int {
	return stanzaOverhead + len(m.From) + len(m.To) + len(m.Type) + len(m.ID) + len(m.Body)
}

func (p *Presence) size() int {
	return stanzaOverhead + len(p.From) + len(p.To) + len(p.Type) + len(p.Status)
}

func (iq *IQ) size() int {
	n := stanzaOverhead + len(iq.From) + len(iq.To) + len(iq.Type) + len(iq.ID)
	if iq.Bind != nil {
		n += len(iq.Bind.Resource) + len(iq.Bind.JID)
	}
	if iq.Error != nil {
		n += len(iq.Error.Type) + len(iq.Error.Text)
	}
	return n
}

// appendAttr writes ` name="value"`; omitEmpty skips an empty value.
func appendAttr(b []byte, name, value string, omitEmpty bool) []byte {
	if omitEmpty && value == "" {
		return b
	}
	b = append(b, ' ')
	b = append(b, name...)
	b = append(b, `="`...)
	b = appendEscaped(b, value)
	return append(b, '"')
}

// appendElem writes <name>text</name>, or nothing for empty text (every
// child text field is omitempty).
func appendElem(b []byte, name, text string) []byte {
	if text == "" {
		return b
	}
	b = append(b, '<')
	b = append(b, name...)
	b = append(b, '>')
	b = appendEscaped(b, text)
	b = append(b, "</"...)
	b = append(b, name...)
	return append(b, '>')
}

// appendEscaped escapes s as encoding/xml's EscapeString does, for
// attribute values and text alike: the five markup characters and tab,
// newline and carriage return as character references, and U+FFFD for
// invalid UTF-8 and for characters outside XML's Char production.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if xmlSafe[c] {
			i++
			continue
		}
		esc, width := escFFFD, 1
		switch c {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if c >= utf8.RuneSelf {
				var r rune
				r, width = utf8.DecodeRuneInString(s[i:])
				if (r != utf8.RuneError || width != 1) && isInCharacterRange(r) {
					i += width
					continue
				}
			}
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

// xmlSafe marks the bytes EscapeString writes as themselves: printable
// ASCII other than the five markup characters. A table, because the
// codec tests it once per byte of every stanza.
var xmlSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\'' && c != '&' && c != '<' && c != '>'
	}
	return t
}()

// isInCharacterRange is XML's Char production, as encoding/xml checks it.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// decodeCanonical decodes data if it is exactly what Encode writes for
// some *Message, *Presence or *IQ, giving the value encoding/xml would.
// ok is false for any other input, which the caller then decodes with
// encoding/xml; so the fast path may refuse freely but must never
// accept what encoding/xml would reject or decode differently.
func decodeCanonical(data []byte) (stanza any, ok bool) {
	p := stanzaScanner{s: string(data), ok: true}
	switch {
	case p.skip("<message"):
		m := &Message{XMLName: xml.Name{Local: KindMessage}}
		m.From = p.attr(` from="`)
		m.To = p.attr(` to="`)
		m.Type = p.attr(` type="`)
		m.ID = p.attr(` id="`)
		p.lit(">")
		m.Body = p.elem("<body>", "</body>")
		p.lit("</message>")
		stanza = m
	case p.skip("<presence"):
		pr := &Presence{XMLName: xml.Name{Local: KindPresence}}
		pr.From = p.attr(` from="`)
		pr.To = p.attr(` to="`)
		pr.Type = p.attr(` type="`)
		p.lit(">")
		pr.Status = p.elem("<status>", "</status>")
		p.lit("</presence>")
		stanza = pr
	case p.skip("<iq"):
		iq := &IQ{XMLName: xml.Name{Local: KindIQ}}
		iq.From = p.attr(` from="`)
		iq.To = p.attr(` to="`)
		p.lit(` type="`)
		iq.Type = p.text('"')
		p.lit(`" id="`)
		iq.ID = p.text('"')
		p.lit(`">`)
		if p.skip("<bind>") {
			iq.Bind = &Bind{XMLName: xml.Name{Local: "bind"}}
			iq.Bind.Resource = p.elem("<resource>", "</resource>")
			iq.Bind.JID = p.elem("<jid>", "</jid>")
			p.lit("</bind>")
		}
		if p.skip("<session></session>") {
			iq.Session = &Session{XMLName: xml.Name{Local: "session"}}
		}
		if p.skip("<error") {
			iq.Error = &Error{XMLName: xml.Name{Local: "error"}}
			iq.Error.Type = p.attr(` type="`)
			p.lit(">")
			iq.Error.Text = p.elem("<text>", "</text>")
			p.lit("</error>")
		}
		p.lit("</iq>")
		stanza = iq
	default:
		return nil, false
	}
	if !p.ok || p.pos != len(p.s) {
		return nil, false
	}
	return stanza, true
}

// stanzaScanner is a single-pass reader of Encode's output. Any
// mismatch clears ok, after which every method is a no-op.
type stanzaScanner struct {
	s   string
	pos int
	ok  bool
}

// lit consumes the literal l, or fails.
func (p *stanzaScanner) lit(l string) {
	if !p.skip(l) {
		p.ok = false
	}
}

// skip consumes l if it comes next.
func (p *stanzaScanner) skip(l string) bool {
	if p.ok && strings.HasPrefix(p.s[p.pos:], l) {
		p.pos += len(l)
		return true
	}
	return false
}

// attr reads an omitempty attribute opened by open (` name="`): absent
// is "", and present with an empty value is not canonical.
func (p *stanzaScanner) attr(open string) string {
	if !p.skip(open) {
		return ""
	}
	v := p.text('"')
	p.lit(`"`)
	if v == "" {
		p.ok = false
	}
	return v
}

// elem reads an omitempty text child between the tags open and close:
// absent is "", and present with empty text is not canonical.
func (p *stanzaScanner) elem(open, close string) string {
	if !p.skip(open) {
		return ""
	}
	v := p.text('<')
	p.lit(close)
	if v == "" {
		p.ok = false
	}
	return v
}

// text reads escaped character data up to, not including, end. A value
// without references is returned as a substring of the input.
func (p *stanzaScanner) text(end byte) string {
	if !p.ok {
		return ""
	}
	start := p.pos
	for i := start; i < len(p.s); {
		switch c := p.s[i]; {
		case xmlSafe[c]:
			i++
		case c == end:
			p.pos = i
			return p.s[start:i]
		case c == '&':
			return p.unescape(start, i, end)
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

// unescape finishes a value that starts at start and has its first
// reference at i, accepting only the references appendEscaped writes.
func (p *stanzaScanner) unescape(start, i int, end byte) string {
	s := p.s
	out := make([]byte, 0, i-start+16)
	out = append(out, s[start:i]...)
	for i < len(s) {
		c := s[i]
		if c == end {
			p.pos = i
			return string(out)
		}
		if c == '&' {
			ref, n := reference(s[i:])
			if n == 0 {
				p.ok = false
				return ""
			}
			out = append(out, ref)
			i += n
			continue
		}
		n := rawWidth(s[i:])
		if n == 0 {
			p.ok = false
			return ""
		}
		out = append(out, s[i:i+n]...)
		i += n
	}
	p.ok = false
	return ""
}

// reference decodes one of appendEscaped's character references at the
// start of s, returning the byte and the reference's length (0 if s
// starts with anything else).
func reference(s string) (byte, int) {
	for _, r := range [...]struct {
		esc string
		c   byte
	}{
		{escQuot, '"'}, {escApos, '\''}, {escAmp, '&'}, {escLT, '<'},
		{escGT, '>'}, {escTab, '\t'}, {escNL, '\n'}, {escCR, '\r'},
	} {
		if strings.HasPrefix(s, r.esc) {
			return r.c, len(r.esc)
		}
	}
	return 0, 0
}

// rawWidth returns the byte length of the character at the start of s
// if appendEscaped writes it unescaped, or 0 if it never does.
func rawWidth(s string) int {
	if xmlSafe[s[0]] {
		return 1
	}
	if s[0] < utf8.RuneSelf {
		return 0
	}
	r, width := utf8.DecodeRuneInString(s)
	if (r == utf8.RuneError && width == 1) || !isInCharacterRange(r) {
		return 0
	}
	return width
}
