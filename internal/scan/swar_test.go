package scan

import (
	"fmt"
	"testing"

	"fastcolumns/internal/race"
	"fastcolumns/internal/storage"
)

// refWordFlags is the scalar specification of swarRangeFlags: extract
// each 16-bit lane and compare it the obvious way.
func refWordFlags(w uint64, lo, hi uint16) uint64 {
	var f uint64
	for k := 0; k < storage.CodesPerWord; k++ {
		c := uint16(w >> (16 * uint(k)))
		if c >= lo && c <= hi {
			f |= 1 << uint(k)
		}
	}
	return f
}

// swarBoundaryCodes are the values where the borrow trick's lane MSB
// bookkeeping could go wrong: the lane extremes, the sign-bit fence at
// 0x8000, and their neighbors.
var swarBoundaryCodes = []uint16{0, 1, 0x7ffe, 0x7fff, 0x8000, 0x8001, 0xfffe, 0xffff}

// TestSWARRangeFlagsBoundaries sweeps every 4-lane combination of the
// boundary codes against every (lo, hi) bound pair drawn from the same
// set — including inverted bounds, which must match nothing.
func TestSWARRangeFlagsBoundaries(t *testing.T) {
	n := len(swarBoundaryCodes)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				for d := 0; d < n; d++ {
					w := uint64(swarBoundaryCodes[a]) |
						uint64(swarBoundaryCodes[b])<<16 |
						uint64(swarBoundaryCodes[c])<<32 |
						uint64(swarBoundaryCodes[d])<<48
					for _, lo := range swarBoundaryCodes {
						for _, hi := range swarBoundaryCodes {
							got := swarRangeFlags(w, bcast16(lo), bcast16(hi))
							want := refWordFlags(w, lo, hi)
							if got != want {
								t.Fatalf("swarRangeFlags(%#016x, lo=%#x, hi=%#x) = %#x, want %#x",
									w, lo, hi, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzSWARWord cross-checks the SWAR word evaluation against the scalar
// loop on arbitrary words and bounds.
func FuzzSWARWord(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint16(0xffff))
	f.Add(^uint64(0), uint16(0x8000), uint16(0x8000))
	f.Add(uint64(0x7fff8000ffff0001), uint16(1), uint16(0x7fff))
	f.Add(uint64(0x0001000100010001), uint16(2), uint16(1)) // inverted bounds
	f.Fuzz(func(t *testing.T, w uint64, lo, hi uint16) {
		got := swarRangeFlags(w, bcast16(lo), bcast16(hi))
		want := refWordFlags(w, lo, hi)
		if got != want {
			t.Fatalf("swarRangeFlags(%#016x, lo=%#x, hi=%#x) = %#x, want %#x",
				w, lo, hi, got, want)
		}
	})
}

// TestPackedMatchesRaggedSpans pins appendPackedMatches at every
// (lo, hi) alignment class — aligned spans take the 64-code word
// kernel, ragged heads and tails the packed-word and scalar paths —
// against the scalar reference.
func TestPackedMatchesRaggedSpans(t *testing.T) {
	const n = 520
	data := make([]storage.Value, n)
	for i := range data {
		data[i] = storage.Value(i % 97)
	}
	cc, err := storage.Compress(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 10, Hi: 60}
	clo, chi, ok := cc.Dict().EncodeRange(p.Lo, p.Hi)
	if !ok {
		t.Fatal("predicate resolved to an empty code range")
	}
	var out []storage.RowID
	for _, lo := range []int{0, 1, 3, 61, 63, 64, 67, 128, 200} {
		for _, hi := range []int{lo, lo + 1, lo + 3, lo + 63, lo + 64, lo + 65, n} {
			if hi > n || hi < lo {
				continue
			}
			out = appendPackedMatches(cc.PackedCodes(), cc.Codes(), lo, hi, clo, chi, out[:0])
			want := refFilter(data[lo:hi], p)
			for i := range want {
				want[i] += storage.RowID(lo)
			}
			sameIDs(t, fmt.Sprintf("span[%d:%d]", lo, hi), out, want)
		}
	}
}

// TestDifferentialPackedKernels extends the differential property to the
// packed-scan variants the benchmark compares: the scalar ablation
// baseline and the SWAR source must both agree with the naive reference
// on the whole corpus, at block sizes that are and are not multiples of
// the 64-code match word.
func TestDifferentialPackedKernels(t *testing.T) {
	for _, tc := range corpus() {
		col := storage.NewColumn("v", tc.data)
		cc, err := storage.Compress(col)
		if err != nil {
			continue // empty column: no compressed twin to test
		}
		want := make([][]storage.RowID, len(tc.preds))
		for i, p := range tc.preds {
			want[i] = refFilter(tc.data, p)
		}
		for _, block := range []int{0, 7, 64} {
			gs := SharedCompressedScalar(cc, tc.preds, block)
			for i := range tc.preds {
				sameIDs(t, fmt.Sprintf("%s/SharedCompressedScalar/block%d/pred%d", tc.name, block, i),
					gs[i], want[i])
			}
			gp := sweep(t, NewPacked(cc, block, nil), tc.preds)
			for i := range tc.preds {
				sameIDs(t, fmt.Sprintf("%s/Packed/block%d/pred%d", tc.name, block, i),
					gp[i], want[i])
			}
		}
	}
}

// TestSWARKernelsZeroAlloc pins the steady-state allocation contract of
// the packed hot path: with a warm buffer, the SWAR kernel and the
// packed source's block scan allocate nothing per call. The
// packed cost model charges alpha only for result writing; a hidden
// allocation per block would add a GC term it doesn't know about.
func TestSWARKernelsZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run without -race")
	}
	data := make([]storage.Value, 4096)
	for i := range data {
		data[i] = storage.Value(i % 997)
	}
	cc, err := storage.Compress(storage.NewColumn("v", data))
	if err != nil {
		t.Fatal(err)
	}
	p := Predicate{Lo: 100, Hi: 500}
	clo, chi, ok := cc.Dict().EncodeRange(p.Lo, p.Hi)
	if !ok {
		t.Fatal("predicate resolved to an empty code range")
	}
	packed, codes := cc.PackedCodes(), cc.Codes()
	buf := make([]storage.RowID, 0, len(data)+1)
	src := NewPacked(cc, 0, nil)
	bound := src.Bind(p)

	sites := []struct {
		name string
		op   func()
	}{
		{"Packed.ScanBlock", func() { buf, _ = src.ScanBlock(0, bound, buf[:0]) }},
		{"appendPackedMatches", func() { buf = appendPackedMatches(packed, codes, 0, len(codes), clo, chi, buf[:0]) }},
	}
	for _, site := range sites {
		if n := testing.AllocsPerRun(100, site.op); n != 0 {
			t.Errorf("%s allocates %.1f per call with warm buffers, want 0", site.name, n)
		}
	}
}
