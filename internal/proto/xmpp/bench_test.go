// Benchmarks for the stanza codec on the chat request path: one
// groupchat message of a typical chat body, encoded and decoded.
// scripts/bench.sh snapshots these numbers into BENCH_cloudsim.json.
package xmpp

import (
	"strings"
	"testing"
)

func benchMessage() *Message {
	return &Message{
		From: "owner@diy.chat/laptop", To: "room@diy.chat",
		Type: "groupchat", ID: "owner-42", Body: strings.Repeat("lorem ipsum ", 20),
	}
}

func BenchmarkStanzaEncode(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStanzaDecode(b *testing.B) {
	raw, err := Encode(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
