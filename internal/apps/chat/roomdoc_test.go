package chat

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// randDocString draws a short string, empty a fifth of the time, mixing
// plain ASCII with every class appendString treats specially: quote and
// backslash, the HTML characters, short-escaped and other control
// bytes, DEL, invalid UTF-8, U+FFFD, U+2028/U+2029 and a non-BMP rune.
func randDocString(rng *rand.Rand) string {
	if rng.Intn(5) == 0 {
		return ""
	}
	pieces := []string{"a", "Z", "0", " ", "\"", "\\", "/", "<", ">", "&", "\b", "\f", "\n", "\r", "\t",
		"\x00", "\x1f", "\x7f", "\xff", "\xed\xa0\x80", "\uFFFD", "\u2028", "\u2029", "\u00e9", "\U0001F600"}
	var sb strings.Builder
	for n := 1 + rng.Intn(6); n > 0; n-- {
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// randStrings draws a nil, empty or populated string slice.
func randStrings(rng *rand.Rand) []string {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(4))
	for i := range out {
		out[i] = randDocString(rng)
	}
	return out
}

func randEntries(rng *rand.Rand) []historyEntry {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []historyEntry{}
	}
	out := make([]historyEntry, 1+rng.Intn(4))
	for i := range out {
		out[i] = historyEntry{From: randDocString(rng), Body: randDocString(rng), Seq: rng.Intn(2001) - 1000}
	}
	return out
}

// randRoomDoc draws a document covering nil, empty and populated slices
// and maps, and negative, zero and extreme counts.
func randRoomDoc(rng *rand.Rand) *roomDoc {
	ints := []int{0, 1, -1, 42, 1 << 40, -(1 << 62)}
	doc := &roomDoc{
		Chunks:   ints[rng.Intn(len(ints))],
		Messages: rng.Int(),
		Members:  randStrings(rng),
		Present:  randStrings(rng),
		Entries:  randEntries(rng),
	}
	switch rng.Intn(3) {
	case 1:
		doc.LastID = map[string]string{}
	case 2:
		doc.LastID = map[string]string{}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			doc.LastID[randDocString(rng)] = randDocString(rng)
		}
	}
	return doc
}

// validUTF8 reports whether every string in doc is valid UTF-8. Only
// such documents decode back: appendString writes invalid bytes as
// \ufffd, which the strict decoder refuses (see unescape).
func validUTF8(doc *roomDoc) bool {
	ok := true
	check := func(s string) {
		if !utf8.ValidString(s) {
			ok = false
		}
	}
	for _, s := range doc.Members {
		check(s)
	}
	for _, s := range doc.Present {
		check(s)
	}
	for _, e := range doc.Entries {
		check(e.From)
		check(e.Body)
	}
	for k, v := range doc.LastID {
		check(k)
		check(v)
	}
	return ok
}

// TestRoomDocMatchesJSONMarshal pins the hand-written encoder to
// json.Marshal byte for byte (a sealed room's size is a simulated
// input), and checks that every encoding of valid UTF-8 decodes back to
// a document json.Unmarshal agrees with.
func TestRoomDocMatchesJSONMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		doc := randRoomDoc(rng)
		got := appendRoomDoc(nil, doc)
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendRoomDoc(%#v)\n got %s\nwant %s", doc, got, want)
		}
		gotEntries := appendEntries(nil, doc.Entries)
		wantEntries, _ := json.Marshal(doc.Entries)
		if !bytes.Equal(gotEntries, wantEntries) {
			t.Fatalf("appendEntries(%#v)\n got %s\nwant %s", doc.Entries, gotEntries, wantEntries)
		}
		if !validUTF8(doc) {
			continue
		}
		checkRoomDocDecode(t, got)
		back, err := unmarshalEntries(string(gotEntries))
		if err != nil {
			t.Fatalf("unmarshalEntries(%s): %v", gotEntries, err)
		}
		var ref []historyEntry
		if err := json.Unmarshal(gotEntries, &ref); err != nil || !reflect.DeepEqual(back, ref) {
			t.Fatalf("unmarshalEntries(%s) = %#v, json.Unmarshal = %#v (%v)", gotEntries, back, ref, err)
		}
	}
}

// checkRoomDocDecode requires data to decode, to agree with
// json.Unmarshal, and to re-encode to itself.
func checkRoomDocDecode(t *testing.T, data []byte) {
	t.Helper()
	doc, err := unmarshalRoomDoc(string(data))
	if err != nil {
		t.Fatalf("unmarshalRoomDoc(%s): %v", data, err)
	}
	var ref roomDoc
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatalf("json.Unmarshal refused %s: %v", data, err)
	}
	if !reflect.DeepEqual(doc, &ref) {
		t.Fatalf("unmarshalRoomDoc(%s) = %#v, json.Unmarshal = %#v", data, doc, &ref)
	}
	if again := appendRoomDoc(nil, doc); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding %s gave %s", data, again)
	}
}

func TestRoomDocRejectsNonCanonical(t *testing.T) {
	for _, in := range []string{
		``,
		`{}`,
		` {"chunks":0,"messages":0,"members":null,"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":null} `,
		`{"chunks":00,"messages":0,"members":null,"present":null,"entries":null}`,
		`{"chunks":-0,"messages":0,"members":null,"present":null,"entries":null}`,
		`{"chunks":1e2,"messages":0,"members":null,"present":null,"entries":null}`,
		`{"chunks":99999999999999999999,"messages":0,"members":null,"present":null,"entries":null}`,
		`{"messages":0,"chunks":0,"members":null,"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":[ "a"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":["\u003C"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":["\u0041"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":["<"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":["\ufffd"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":["\/"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":[null],"present":null,"entries":null}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":[null]}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":null,"last_id":{}}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":null,"last_id":null}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":null,"last_id":{"b":"1","a":"2"}}`,
		`{"chunks":0,"messages":0,"members":null,"present":null,"entries":null,"last_id":{"a":"1","a":"2"}}`,
		"{\"chunks\":0,\"messages\":0,\"members\":[\"\x01\"],\"present\":null,\"entries\":null}",
		"{\"chunks\":0,\"messages\":0,\"members\":[\"\xff\"],\"present\":null,\"entries\":null}",
		"{\"chunks\":0,\"messages\":0,\"members\":[\"\u2028\"],\"present\":null,\"entries\":null}",
	} {
		if doc, err := unmarshalRoomDoc(in); err == nil {
			t.Errorf("unmarshalRoomDoc(%q) accepted: %#v", in, doc)
		}
	}
}

// FuzzRoomDoc holds the strict decoder to json.Unmarshal: whatever it
// accepts, json.Unmarshal accepts too and decodes to the same document,
// and re-encoding gives back the input bytes. The corpus is seeded with
// encoder output.
func FuzzRoomDoc(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(appendRoomDoc(nil, randRoomDoc(rng)))
	}
	f.Add([]byte(`{"chunks":3,"messages":120,"members":["alice","bob"],"present":[],"entries":[{"from":"alice","body":"hi <b>","seq":120}],"last_id":{"alice":"alice-120"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := unmarshalRoomDoc(string(data))
		if err != nil {
			return
		}
		var ref roomDoc
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("accepted %q that json.Unmarshal refuses: %v", data, err)
		}
		if !reflect.DeepEqual(doc, &ref) {
			t.Fatalf("decoded %q as %#v, json.Unmarshal as %#v", data, doc, &ref)
		}
		if again := appendRoomDoc(nil, doc); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding %q gave %q", data, again)
		}
	})
}
