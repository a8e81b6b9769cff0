package index

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"fastcolumns/internal/storage"
)

// traceDigest hashes every event of every traced probe, in order, over
// seeded bulk-loaded trees at fanouts 3, 21 and 250 on heavy-duplicate
// and wide domains. simexec's cache simulator keys on NodeID and charges
// KeysRead and Entries, so the whole sequence is its input.
func traceDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, fanout := range []int{3, 21, 250} {
		for _, domain := range []int32{1, 7, 300, 1 << 20} {
			for _, n := range []int{0, 1, fanout, fanout*fanout + 1, 5000} {
				seed := int64(fanout)*1_000_003 + int64(domain)*31 + int64(n)
				tr := Build(randomColumn(seed, n, domain), fanout)
				rng := rand.New(rand.NewSource(seed))
				ranges := [][2]storage.Value{
					{math.MinInt32, math.MaxInt32}, {math.MinInt32, domain / 2},
					{domain / 2, math.MaxInt32}, {0, 0}, {domain - 1, domain - 1},
					{domain, domain + 9}, {-9, -1}, {5, 4},
				}
				for i := 0; i < 40; i++ {
					lo := rng.Int31n(domain+2) - 1
					ranges = append(ranges, [2]storage.Value{lo, lo + rng.Int31n(domain/8+1)})
				}
				for _, r := range ranges {
					put(-1)
					put(tr.Trace(r[0], r[1], func(ev TraceEvent) {
						put(int(ev.Kind))
						put(ev.NodeID)
						put(ev.Level)
						put(ev.KeysRead)
						put(ev.Entries)
					}))
				}
			}
		}
	}
	return h.Sum64()
}

// TestTracePinned pins the full Trace event sequence — node identities,
// levels, separator reads and leaf entries — so a change to the index
// layout cannot silently move the simulated executor's addresses or
// charges.
func TestTracePinned(t *testing.T) {
	const want = 0x71938a4cab5a6e39
	if got := traceDigest(); got != want {
		t.Fatalf("trace digest = %#x, want %#x", got, uint64(want))
	}
}
