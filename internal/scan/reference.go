package scan

import (
	"sync"

	rt "fastcolumns/internal/runtime"
	"fastcolumns/internal/storage"
)

// This file holds the shared scans that are NOT the engine's execution
// path: the serial reference every differential suite compares the pass
// driver against (Shared), and the two ablation baselines cmd/bench's
// gates divide by (SharedStatic for the morsel-vs-static skew gate,
// SharedCompressedScalar for the SWAR-vs-scalar gate). They walk the
// data themselves, with the plain predicated kernels, precisely so they
// share no code with what they are compared to.

// Shared evaluates q predicates in one pass over the data: each block is
// brought up the memory hierarchy once and every query filters it before
// eviction. Results are per query, in rowID order.
func Shared(data []storage.Value, preds []Predicate, blockTuples int) [][]storage.RowID {
	if blockTuples <= 0 {
		blockTuples = DefaultBlockTuples
	}
	results := make([][]storage.RowID, len(preds))
	for lo := 0; lo < len(data); lo += blockTuples {
		hi := min(lo+blockTuples, len(data))
		block := data[lo:hi]
		for qi, p := range preds {
			results[qi] = Scan(block, p, lo, results[qi])
		}
	}
	return results
}

// SharedStatic is the pre-morsel parallel shared scan: the q queries
// are statically partitioned into len(preds)*w/workers slices, one
// goroutine each, so a skewed batch (one high-selectivity predicate
// among cheap ones) straggles on a single worker while the others sit
// idle — exactly the behaviour the skewed-batch benchmark measures
// against the morsel-dispatched pass. Spawns fresh goroutines per call
// (via runtime.Go), which is part of the baseline's honest cost.
// workers <= 0 selects the default pool's width.
func SharedStatic(data []storage.Value, preds []Predicate, blockTuples, workers int) [][]storage.RowID {
	if workers <= 0 {
		workers = rt.Default().Workers()
	}
	if workers == 1 || len(preds) == 1 {
		return Shared(data, preds, blockTuples)
	}
	if blockTuples <= 0 {
		blockTuples = DefaultBlockTuples
	}
	results := make([][]storage.RowID, len(preds))
	var wg sync.WaitGroup
	// Partition queries across workers; each worker streams all blocks for
	// its query subset so a block is still shared within the subset.
	for w := 0; w < workers; w++ {
		qlo := len(preds) * w / workers
		qhi := len(preds) * (w + 1) / workers
		if qlo == qhi {
			continue
		}
		wg.Add(1)
		rt.Go(func() {
			defer wg.Done()
			for lo := 0; lo < len(data); lo += blockTuples {
				hi := min(lo+blockTuples, len(data))
				block := data[lo:hi]
				for qi := qlo; qi < qhi; qi++ {
					results[qi] = Scan(block, preds[qi], lo, results[qi])
				}
			}
		})
	}
	wg.Wait()
	return results
}

// SharedCompressedScalar is the pre-SWAR shared compressed scan: code
// bounds resolve once per query, then the predicated one-code-per-
// iteration kernel visits each block.
func SharedCompressedScalar(c *storage.CompressedColumn, preds []Predicate, blockTuples int) [][]storage.RowID {
	if blockTuples <= 0 {
		blockTuples = CodeBlockTuples
	}
	type codeBounds struct {
		lo, hi storage.Code
		ok     bool
	}
	bs := make([]codeBounds, len(preds))
	for i, p := range preds {
		bs[i].lo, bs[i].hi, bs[i].ok = c.Dict().EncodeRange(p.Lo, p.Hi)
	}
	results := make([][]storage.RowID, len(preds))
	codes := c.Codes()
	for lo := 0; lo < len(codes); lo += blockTuples {
		hi := min(lo+blockTuples, len(codes))
		for qi, b := range bs {
			if !b.ok {
				continue
			}
			results[qi] = scanCodes(codes[lo:hi], b.lo, b.hi, lo, results[qi])
		}
	}
	return results
}

// scanCodes is the predicated scalar kernel over 16-bit codes.
func scanCodes(codes []storage.Code, lo, hi storage.Code, base int, out []storage.RowID) []storage.RowID {
	out = growFor(out, len(codes))
	n := len(out)
	buf := out[:cap(out)]
	for i, cv := range codes {
		buf[n] = storage.RowID(base + i)
		if cv >= lo && cv <= hi {
			n++
		}
	}
	return buf[:n]
}
