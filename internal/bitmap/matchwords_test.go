package bitmap

import (
	"testing"

	"fastcolumns/internal/storage"
)

// refRows is the obvious materializer: walk every bit.
func refRows(bm []uint64, nbits, base int) []storage.RowID {
	var out []storage.RowID
	for i := 0; i < nbits; i++ {
		if bm[i/64]&(1<<uint(i%64)) != 0 {
			out = append(out, storage.RowID(base+i))
		}
	}
	return out
}

// TestAppendWordMatchesReference: every set bit becomes base+bit, in
// ascending order, including the word extremes.
func TestAppendWordMatchesReference(t *testing.T) {
	words := []uint64{0, 1, 1 << 63, ^uint64(0), 0x8000000000000001, 0xdeadbeefcafebabe}
	for _, w := range words {
		got := AppendWord(w, 100, nil)
		want := refRows([]uint64{w}, 64, 100)
		if len(got) != len(want) {
			t.Fatalf("AppendWord(%#x): %d rows, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AppendWord(%#x)[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}
