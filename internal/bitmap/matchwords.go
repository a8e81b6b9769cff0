package bitmap

import (
	"math/bits"

	"fastcolumns/internal/storage"
)

// AppendWord appends the set positions of one bitmap word, offset by
// base, to out in ascending order.
func AppendWord(word uint64, base int, out []storage.RowID) []storage.RowID {
	for word != 0 {
		out = append(out, storage.RowID(base+bits.TrailingZeros64(word)))
		word &= word - 1
	}
	return out
}
