// Benchmark for the room-document codec: a room whose live tail is
// about to roll over (64 KiB of entries), encoded into a buffer sized
// from the document and decoded once, as one send's saveRoom and the
// next send's loadRoom do. scripts/bench.sh
// snapshots the numbers into BENCH_cloudsim.json.
package chat

import (
	"fmt"
	"strings"
	"testing"
)

func BenchmarkRoomDocRoundTrip(b *testing.B) {
	doc := &roomDoc{
		Chunks:  3,
		Members: []string{"alice", "bob", "carol"},
		Present: []string{"alice", "bob"},
		LastID:  map[string]string{"alice": "alice-900", "bob": "bob-880", "carol": "carol-870"},
	}
	body := strings.Repeat("lorem ipsum ", 20)
	for tail := 0; tail < chunkLimit; tail += len(body) + len("alice") + 24 {
		doc.Messages++
		doc.Entries = append(doc.Entries, historyEntry{From: "alice", Body: fmt.Sprintf("%s%d", body, doc.Messages), Seq: doc.Messages})
	}
	b.SetBytes(int64(len(appendRoomDoc(nil, doc))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := appendRoomDoc(make([]byte, 0, roomDocSize(doc)), doc)
		if _, err := unmarshalRoomDoc(string(buf)); err != nil {
			b.Fatal(err)
		}
	}
}
