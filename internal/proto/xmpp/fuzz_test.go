package xmpp

import (
	"reflect"
	"testing"
)

// FuzzDecode checks Decode against decodeXML, its encoding/xml path on
// its own: on every input both accept or both reject, and what they accept is
// the same stanza. The corpus is seeded with Encode output, so the fast
// path is exercised as well as the fallback; anything accepted must
// also re-encode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`<message from="a@b" type="chat"><body>hi</body></message>`))
	f.Add([]byte(`<presence type="unavailable"/>`))
	f.Add([]byte(`<iq type="set" id="1"><session/></iq>`))
	f.Add([]byte(`<message><body>&lt;tricky&gt;</body></message>`))
	f.Add([]byte(``))
	f.Add([]byte(`<message`))
	f.Add([]byte(`<weird attr="<">`))
	for _, st := range encoderSeeds() {
		raw, err := Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		want, wantErr := decodeXML(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Decode error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("Decode = %#v, reference = %#v", st, want)
		}
		if _, err := Encode(st); err != nil {
			t.Fatalf("decoded stanza failed to re-encode: %v", err)
		}
	})
}

// encoderSeeds are stanzas whose encodings seed FuzzDecode: every kind,
// every optional part, and every escape the encoder writes.
func encoderSeeds() []any {
	tricky := "q\"a'&<>\t\n\r\x01\xff\uFFFE\u2028\u2029\U0001F600"
	return []any{
		&Message{From: "alice@diy.chat/phone", To: "room@diy.chat", Type: "groupchat", ID: "alice-1", Body: "hello"},
		&Message{Body: tricky, ID: tricky},
		&Message{},
		&Presence{From: "alice@diy.chat", Type: "unavailable", Status: tricky},
		&IQ{Type: "set", ID: "sess-1", From: "alice@diy.chat/x", Session: &Session{}},
		&IQ{Type: "result", ID: "sess-1", To: "alice@diy.chat/x", Bind: &Bind{JID: "alice@diy.chat/x", Resource: "x"}},
		&IQ{Type: "error", ID: "", Error: &Error{Type: "auth", Text: tricky}},
		&IQ{Bind: &Bind{}, Session: &Session{}, Error: &Error{}},
	}
}

// FuzzParseJID checks the JID parser never panics and that accepted
// JIDs round-trip through String.
func FuzzParseJID(f *testing.F) {
	f.Add("alice@example.com/phone")
	f.Add("example.com")
	f.Add("@@//")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		j, err := ParseJID(s)
		if err != nil {
			return
		}
		again, err := ParseJID(j.String())
		if err != nil || again != j {
			t.Fatalf("accepted JID %q did not round-trip: %v", s, err)
		}
	})
}
