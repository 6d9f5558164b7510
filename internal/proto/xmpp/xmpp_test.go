package xmpp

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseJID(t *testing.T) {
	tests := []struct {
		in   string
		want JID
		ok   bool
	}{
		{"alice@example.com", JID{Local: "alice", Domain: "example.com"}, true},
		{"alice@example.com/phone", JID{Local: "alice", Domain: "example.com", Resource: "phone"}, true},
		{"example.com", JID{Domain: "example.com"}, true},
		{"example.com/res", JID{Domain: "example.com", Resource: "res"}, true},
		{"", JID{}, false},
		{"@example.com", JID{}, false},
		{"alice@", JID{}, false},
		{"alice@example.com/", JID{}, false},
		{"a@b@c", JID{}, false},
	}
	for _, tt := range tests {
		got, err := ParseJID(tt.in)
		if tt.ok != (err == nil) {
			t.Errorf("ParseJID(%q) error = %v, want ok=%v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseJID(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
		if !tt.ok && !errors.Is(err, ErrBadJID) {
			t.Errorf("ParseJID(%q) error %v not ErrBadJID", tt.in, err)
		}
	}
}

func TestJIDStringRoundTrip(t *testing.T) {
	for _, s := range []string{"alice@example.com", "alice@example.com/phone", "example.com"} {
		j, err := ParseJID(s)
		if err != nil {
			t.Fatal(err)
		}
		if j.String() != s {
			t.Errorf("round trip %q -> %q", s, j.String())
		}
	}
}

func TestJIDBare(t *testing.T) {
	j, _ := ParseJID("alice@example.com/phone")
	if got := j.Bare().String(); got != "alice@example.com" {
		t.Fatalf("Bare() = %q", got)
	}
	if j.IsZero() || (JID{}).IsZero() != true {
		t.Fatal("IsZero misbehaves")
	}
}

func TestJIDRoundTripProperty(t *testing.T) {
	// Property: any JID built from clean parts parses back to itself.
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r == '@' || r == '/' || r < ' ' {
				return -1
			}
			return r
		}, s)
		if s == "" {
			return "x"
		}
		return s
	}
	f := func(local, domain, res string) bool {
		j := JID{Local: clean(local), Domain: clean(domain), Resource: clean(res)}
		got, err := ParseJID(j.String())
		return err == nil && got == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeMessage(t *testing.T) {
	m := &Message{
		From: "alice@diy.chat/phone",
		To:   "room@diy.chat",
		Type: "groupchat",
		ID:   "msg-1",
		Body: "hello <world> & friends",
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := got.(*Message)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	gm.XMLName = m.XMLName // xml.Name is set by the decoder only
	if *gm != *m {
		t.Fatalf("round trip: %+v != %+v", gm, m)
	}
}

func TestEncodeDecodePresence(t *testing.T) {
	p := &Presence{From: "alice@diy.chat", Type: "unavailable", Status: "gone"}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.(*Presence)
	if gp.From != p.From || gp.Type != p.Type || gp.Status != p.Status {
		t.Fatalf("round trip: %+v", gp)
	}
}

func TestEncodeDecodeIQSession(t *testing.T) {
	// Session initiation, the prototype's first exchange.
	iq := &IQ{Type: "set", ID: "sess-1", Session: &Session{}}
	data, err := Encode(iq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Type != "set" || gi.ID != "sess-1" || gi.Session == nil {
		t.Fatalf("round trip: %+v", gi)
	}
}

func TestEncodeDecodeIQBind(t *testing.T) {
	iq := &IQ{Type: "result", ID: "bind-1", Bind: &Bind{JID: "alice@diy.chat/phone"}}
	data, _ := Encode(iq)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Bind == nil || gi.Bind.JID != "alice@diy.chat/phone" {
		t.Fatalf("bind lost: %+v", gi)
	}
}

func TestDecodeIQError(t *testing.T) {
	iq := &IQ{Type: "error", ID: "x", Error: &Error{Type: "auth", Text: "not a member"}}
	data, _ := Encode(iq)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Error == nil || gi.Error.Text != "not a member" {
		t.Fatalf("error payload lost: %+v", gi)
	}
}

func TestDecodeUnknownStanza(t *testing.T) {
	if _, err := Decode([]byte("<weird/>")); !errors.Is(err, ErrUnknownStanza) {
		t.Fatalf("got %v, want ErrUnknownStanza", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, in := range []string{"", "not xml", "<message", "<>"} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) succeeded", in)
		}
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(42); !errors.Is(err, ErrUnknownStanza) {
		t.Fatalf("got %v, want ErrUnknownStanza", err)
	}
}

func TestStreamFraming(t *testing.T) {
	h := StreamHeader("alice@diy.chat", "diy.chat", "s1")
	if !strings.Contains(h, `to="diy.chat"`) || !strings.HasPrefix(h, "<stream:stream") {
		t.Fatalf("header = %q", h)
	}
	if StreamClose() != "</stream:stream>" {
		t.Fatalf("close = %q", StreamClose())
	}
}

func TestMessageBodyEscaping(t *testing.T) {
	// XML metacharacters in the body must survive the round trip and
	// must not appear raw in the encoding (injection resistance).
	m := &Message{Body: `</message><message from="evil@x">pwned`}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `<message from="evil@x">`) {
		t.Fatal("stanza injection not escaped")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*Message).Body != m.Body {
		t.Fatal("escaped body did not round trip")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(body, id string) bool {
		// XML cannot carry arbitrary control bytes; restrict to valid
		// printable input as real chat clients do. U+FFFE and U+FFFF
		// are outside XML's Char production too: encoding/xml writes
		// them as U+FFFD.
		clean := func(s string) string {
			return strings.Map(func(r rune) rune {
				if r < ' ' || r == 0xFFFD || r == 0xFFFE || r == 0xFFFF {
					return -1
				}
				return r
			}, s)
		}
		m := &Message{Body: clean(body), ID: clean(id), Type: "chat"}
		data, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		gm := got.(*Message)
		return gm.Body == m.Body && gm.ID == m.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randText draws a short string that is empty a quarter of the time
// and otherwise mixes plain ASCII with every character class the
// escaper treats specially: markup characters, tab/newline/return,
// other control bytes, invalid UTF-8, U+FFFD, U+FFFE and a non-BMP
// rune.
func randText(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return ""
	}
	pieces := []string{"a", "Z", "9", " ", "\"", "'", "&", "<", ">", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
		"\xff", "\xed\xa0\x80", "\uFFFD", "\uFFFE", "\u2028", "\u00e9", "\U0001F600", "]]>", "&amp;"}
	var sb strings.Builder
	for n := 1 + rng.Intn(8); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// randStanza draws a *Message, *Presence or *IQ with random fields and
// random nil/non-nil IQ payloads.
func randStanza(rng *rand.Rand) any {
	switch rng.Intn(3) {
	case 0:
		return &Message{From: randText(rng), To: randText(rng), Type: randText(rng), ID: randText(rng), Body: randText(rng)}
	case 1:
		return &Presence{From: randText(rng), To: randText(rng), Type: randText(rng), Status: randText(rng)}
	}
	iq := &IQ{From: randText(rng), To: randText(rng), Type: randText(rng), ID: randText(rng)}
	if rng.Intn(2) == 0 {
		iq.Bind = &Bind{Resource: randText(rng), JID: randText(rng)}
	}
	if rng.Intn(2) == 0 {
		iq.Session = &Session{}
	}
	if rng.Intn(2) == 0 {
		iq.Error = &Error{Type: randText(rng), Text: randText(rng)}
	}
	return iq
}

// TestEncodeMatchesXMLMarshal pins the hand-written encoder to
// xml.Marshal byte for byte (stanza sizes are simulated inputs), and
// checks that the decoder's fast path accepts every encoding and agrees
// with decodeXML, the encoding/xml path, on it.
func TestEncodeMatchesXMLMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		st := randStanza(rng)
		got, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := xml.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode(%#v)\n got %q\nwant %q", st, got, want)
		}
		fast, ok := decodeCanonical(got)
		if !ok {
			t.Fatalf("fast path refused Encode output %q", got)
		}
		ref, err := decodeXML(got)
		if err != nil {
			t.Fatalf("reference refused Encode output %q: %v", got, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path decoded %q as %#v, reference as %#v", got, fast, ref)
		}
	}
}

func TestEncodeValueAndNilStanzas(t *testing.T) {
	for _, st := range []any{Message{Body: "x"}, Presence{Type: "unavailable"}, IQ{Type: "get"}, (*Message)(nil), (*Presence)(nil), (*IQ)(nil)} {
		got, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := xml.Marshal(st)
		if !bytes.Equal(got, want) {
			t.Errorf("Encode(%#v) = %q, want %q", st, got, want)
		}
	}
}

// TestDecodeNonCanonicalStillDecodes feeds well-formed XMPP that the
// fast path refuses — namespaces, self-closing tags, other attribute
// order, whitespace, raw characters Encode would escape, a prolog — and
// requires Decode to match decodeXML, the encoding/xml path, on each.
func TestDecodeNonCanonicalStillDecodes(t *testing.T) {
	for _, in := range []string{
		`<message xmlns="jabber:client" from="a@b"><body>hi</body></message>`,
		`<message type="chat" from="a@b"><body>hi</body></message>`,
		`<message from='a@b'><body>it's "raw" > here</body></message>`,
		`<message from="a@b" ><body>hi</body></message>`,
		`<message from=""><body></body></message>`,
		`<?xml version="1.0"?><presence/>`,
		`<presence from="a@b"/>`,
		`<iq type="set" id="1"><session xmlns="urn:ietf:params:xml:ns:xmpp-session"/></iq>`,
		`<iq id="1" type="set"><session></session></iq>`,
		"<message><body>line\r\nbreak</body></message>",
		`<message><body>x</body></message> trailing`,
		`<message><body><![CDATA[<cdata>]]></body></message>`,
		`<message><body>&#65;&#x42;</body></message>`,
	} {
		if _, ok := decodeCanonical([]byte(in)); ok {
			t.Errorf("fast path accepted non-canonical %q", in)
		}
		got, err := Decode([]byte(in))
		want, wantErr := decodeXML([]byte(in))
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("Decode(%q) = %#v, %v; reference %#v, %v", in, got, err, want, wantErr)
		}
	}
}
