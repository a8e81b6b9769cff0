package scan

import (
	"fastcolumns/internal/bitmap"
	"fastcolumns/internal/storage"
)

// SWAR (SIMD-within-a-register) range evaluation over the word-packed
// code layout (storage.PackedCodes): four 16-bit codes per uint64, all
// four compared against a query's code bounds with plain 64-bit
// arithmetic — no branches, no per-tuple stores. The scan's per-tuple
// work becomes a handful of word operations; matches surface as a
// 64-code match word kept in a register, whose set positions are
// materialized into rowIDs only when the word is non-zero
// (internal/bitmap), so the cost that scales with selectivity is
// separated from the cost that scales with N. This is the BitWeaving-
// style trick the paper's Appendix D assumes when it credits the scan
// with W-way parallelism.

const (
	// swarH masks the MSB of each 16-bit lane.
	swarH = uint64(0x8000800080008000)
	// swarOnes replicates a 16-bit value into all four lanes.
	swarOnes = uint64(0x0001000100010001)
	// swarWordCodes is the number of codes covered by one match-bitmap
	// word: 64 bits = 16 packed words x 4 lanes.
	swarWordCodes = 64
)

// bcast16 broadcasts a code into all four lanes.
func bcast16(c storage.Code) uint64 { return uint64(c) * swarOnes }

// swarLT16 compares the four 16-bit lanes of x and y (unsigned) and
// returns the lanes' MSBs set where x < y. The subtract/borrow trick:
// t = (x|H) - (y&^H) subtracts the low 15 bits with no cross-lane
// borrow (each minuend lane is >= 2^15, each subtrahend lane < 2^15),
// leaving t's lane MSB = NOT borrow, i.e. clear iff xlow < ylow. The
// full 16-bit comparison then resolves by MSB: x < y when x's MSB is
// clear and y's is set, or when the MSBs agree and the low bits borrow.
func swarLT16(x, y uint64) uint64 {
	t := (x | swarH) - (y &^ swarH)
	return ((^x & y) | (^(x ^ y) &^ t)) & swarH
}

// swarRangeFlags evaluates lo <= lane <= hi on the four lanes of w and
// compacts the four match flags into bits 0..3 (bit k = lane k = code
// 4*word+k, so flag order matches row order). lov and hiv are the
// broadcast bounds.
func swarRangeFlags(w, lov, hiv uint64) uint64 {
	m := swarH &^ (swarLT16(w, lov) | swarLT16(hiv, w))
	return (m>>15 | m>>30 | m>>45 | m>>60) & 0xF
}

// swarMatchWord evaluates the 64 codes held in packed[w0:w0+16] and
// returns their match-bitmap word (bit j = code 64*(w0/16)+j... i.e.
// bit j corresponds to the j-th code of the span).
func swarMatchWord(packed []uint64, w0 int, lov, hiv uint64) uint64 {
	var m uint64
	words := packed[w0 : w0+16 : w0+16]
	for k, w := range words {
		m |= swarRangeFlags(w, lov, hiv) << (uint(k) * 4)
	}
	return m
}

// appendPackedMatches appends the rowIDs of codes i in [lo, hi) with
// clo <= codes[i] <= chi, in ascending order. 64-code aligned spans run
// through the SWAR word kernel with the bitmap word kept in a register
// and materialized immediately (a zero word — the common case at low
// selectivity — costs one well-predicted branch); the ragged head and
// tail fall back to the scalar comparison, since the packed tail word
// has no sentinel lanes to hide behind.
func appendPackedMatches(packed []uint64, codes []storage.Code, lo, hi int,
	clo, chi storage.Code, out []storage.RowID) []storage.RowID {
	i := lo
	// Scalar head up to the next bitmap-word boundary.
	head := (lo + swarWordCodes - 1) &^ (swarWordCodes - 1)
	if head > hi {
		head = hi
	}
	for ; i < head; i++ {
		if c := codes[i]; c >= clo && c <= chi {
			out = append(out, storage.RowID(i))
		}
	}
	lov, hiv := bcast16(clo), bcast16(chi)
	for ; i+swarWordCodes <= hi; i += swarWordCodes {
		if m := swarMatchWord(packed, i>>2, lov, hiv); m != 0 {
			out = bitmap.AppendWord(m, i, out)
		}
	}
	// Whole packed words left of the scalar tail.
	for ; i+storage.CodesPerWord <= hi; i += storage.CodesPerWord {
		if f := swarRangeFlags(packed[i>>2], lov, hiv); f != 0 {
			out = bitmap.AppendWord(f, i, out)
		}
	}
	for ; i < hi; i++ {
		if c := codes[i]; c >= clo && c <= chi {
			out = append(out, storage.RowID(i))
		}
	}
	return out
}
