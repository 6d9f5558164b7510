package xmpp

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
)

// Stanza kinds.
const (
	KindMessage  = "message"
	KindPresence = "presence"
	KindIQ       = "iq"
)

// Message is a chat message stanza.
type Message struct {
	XMLName xml.Name `xml:"message"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr,omitempty"` // "chat", "groupchat"
	ID      string   `xml:"id,attr,omitempty"`
	Body    string   `xml:"body,omitempty"`
}

// Presence announces availability ("", "unavailable").
type Presence struct {
	XMLName xml.Name `xml:"presence"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr,omitempty"`
	Status  string   `xml:"status,omitempty"`
}

// IQ is an info/query stanza; the prototype uses it for session
// initiation and resource binding.
type IQ struct {
	XMLName xml.Name `xml:"iq"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr"` // "get", "set", "result", "error"
	ID      string   `xml:"id,attr"`
	Bind    *Bind    `xml:"bind,omitempty"`
	Session *Session `xml:"session,omitempty"`
	Error   *Error   `xml:"error,omitempty"`
}

// Bind is the resource-binding IQ payload.
type Bind struct {
	XMLName  xml.Name `xml:"bind"`
	Resource string   `xml:"resource,omitempty"`
	JID      string   `xml:"jid,omitempty"`
}

// Session is the session-initiation IQ payload.
type Session struct {
	XMLName xml.Name `xml:"session"`
}

// Error is a stanza error.
type Error struct {
	XMLName xml.Name `xml:"error"`
	Type    string   `xml:"type,attr,omitempty"`
	Text    string   `xml:"text,omitempty"`
}

// ErrUnknownStanza reports an unrecognized element.
var ErrUnknownStanza = errors.New("xmpp: unknown stanza")

// Encode serializes a stanza (Message, Presence or IQ, by value or
// pointer) to XML, byte for byte as xml.Marshal does. A nil pointer
// encodes to nothing, as with xml.Marshal.
func Encode(stanza any) ([]byte, error) {
	switch st := stanza.(type) {
	case *Message:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.size())), nil
	case *Presence:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.size())), nil
	case *IQ:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.size())), nil
	case Message:
		return Encode(&st)
	case Presence:
		return Encode(&st)
	case IQ:
		return Encode(&st)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownStanza, stanza)
	}
}

// Decode parses a single stanza, returning *Message, *Presence or *IQ.
// Encode's own output takes a hand-written fast path; any other input
// goes through encoding/xml, with the same result either way.
func Decode(data []byte) (any, error) {
	if st, ok := decodeCanonical(data); ok {
		return st, nil
	}
	return decodeXML(data)
}

// decodeXML decodes the first stanza element in data with encoding/xml,
// skipping any tokens before it.
func decodeXML(data []byte) (any, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmpp: decoding stanza: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch start.Name.Local {
		case KindMessage:
			var m Message
			if err := dec.DecodeElement(&m, &start); err != nil {
				return nil, fmt.Errorf("xmpp: decoding message: %w", err)
			}
			return &m, nil
		case KindPresence:
			var p Presence
			if err := dec.DecodeElement(&p, &start); err != nil {
				return nil, fmt.Errorf("xmpp: decoding presence: %w", err)
			}
			return &p, nil
		case KindIQ:
			var iq IQ
			if err := dec.DecodeElement(&iq, &start); err != nil {
				return nil, fmt.Errorf("xmpp: decoding iq: %w", err)
			}
			return &iq, nil
		default:
			return nil, fmt.Errorf("%w: <%s>", ErrUnknownStanza, start.Name.Local)
		}
	}
}

// StreamHeader returns the opening <stream:stream> element for a
// client-to-server stream. The HTTPS tunnel sends it once per session.
func StreamHeader(from, to, id string) string {
	return fmt.Sprintf(
		`<stream:stream from=%q to=%q id=%q version="1.0" xmlns="jabber:client" xmlns:stream="http://etherx.jabber.org/streams">`,
		from, to, id)
}

// StreamClose returns the stream-closing tag.
func StreamClose() string { return `</stream:stream>` }
