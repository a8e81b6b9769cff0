package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"fastcolumns"
)

// dataSeed fixes the table contents: -seed moves predicates and arrivals
// only, so two seeds query the same data.
const dataSeed = 20170514

// histogramBuckets is the Analyze resolution every fixture uses.
const histogramBuckets = 128

// maxAppends bounds the tuples a run may append (writer plus probes).
const maxAppends = 1 << 16

// sampleEvery is the share of replies whose rowIDs are checked row by row.
const sampleEvery = 16

// fixture is a workload's data and the oracle over it: the harness's own
// copy of the column, a sorted copy for counting, and the ledger of what
// the writer appended and when it merged.
type fixture struct {
	w      *workload
	base   []fastcolumns.Value
	sorted []fastcolumns.Value
	// appended holds, in order, every value a writer will append; it is
	// filled up front so that readers can check rowIDs past the base
	// without synchronising with the writer.
	appended []fastcolumns.Value

	// appendCount is how many of appended have been handed to Table.Append.
	// mergeAt[v-1] is appendCount when merge v started: table version v
	// holds the base plus appended[:mergeAt[v-1]]. Only the writer (or the
	// idle probe, when no writer runs) touches mergeAt; the oracle reads it
	// after they have stopped.
	appendCount   atomic.Int64
	mergesStarted atomic.Int32
	mergesDone    atomic.Int32
	mergeAt       []int
}

func newFixture(w *workload, rows int) *fixture {
	rng := rand.New(rand.NewSource(dataSeed))
	fx := &fixture{w: w, base: make([]fastcolumns.Value, rows), appended: make([]fastcolumns.Value, maxAppends)}
	for i := range fx.base {
		fx.base[i] = fastcolumns.Value(rng.Intn(w.domain))
	}
	for i := range fx.appended {
		fx.appended[i] = fastcolumns.Value(rng.Intn(w.domain))
	}
	fx.sorted = append([]fastcolumns.Value(nil), fx.base...)
	sort.Slice(fx.sorted, func(i, j int) bool { return fx.sorted[i] < fx.sorted[j] })
	return fx
}

// resetLedger forgets the appends and merges of a table that has been
// discarded, so that the next one starts at version 0.
func (fx *fixture) resetLedger() {
	fx.appendCount.Store(0)
	fx.mergesStarted.Store(0)
	fx.mergesDone.Store(0)
	fx.mergeAt = nil
}

// serveOptions is what every system is served with — the defaults — and
// what the conditions block records.
var serveOptions = fastcolumns.ServeOptions{}

// system is the program under test, built exactly as shipped: default
// Config, default ServeOptions.
type system struct {
	eng *fastcolumns.Engine
	tbl *fastcolumns.Table
	srv *fastcolumns.Server
}

func (s *system) close() {
	s.srv.Close()
	s.eng.Close()
}

// setup builds the engine, the table with its access structures, and the
// server, and returns how long that took. Copying the column first is the
// harness's work and is not timed: AddColumn keeps the slice it is given.
func (fx *fixture) setup() (*system, time.Duration, error) {
	col := append([]fastcolumns.Value(nil), fx.base...)
	w := fx.w
	start := time.Now()
	eng := fastcolumns.New(fastcolumns.Config{})
	tbl, err := eng.CreateTable(w.table)
	if err == nil {
		err = tbl.AddColumn(w.attr, col)
	}
	if err == nil {
		err = tbl.CreateIndex(w.attr)
	}
	if err == nil {
		err = tbl.Analyze(w.attr, histogramBuckets)
	}
	if err == nil && w.compress {
		err = tbl.Compress(w.attr)
	}
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	srv := eng.Serve(serveOptions)
	return &system{eng: eng, tbl: tbl, srv: srv}, time.Since(start), nil
}

// Sample outcomes. Everything but statusOK counts as failed.
const (
	statusOK uint8 = iota
	statusShed
	statusCancelled
	statusErrored
	statusLate
	statusWrong
)

// sample is one query as the generator saw it. Times are nanoseconds
// since the run's start.
type sample struct {
	due      int64 // intended send time (equals sent in a closed loop)
	sent     int64 // SubmitContext called
	admitted int64 // SubmitContext returned
	recv     int64 // reply received
	pred     fastcolumns.Predicate
	rows     int32
	// verLo..verHi are the table versions the reply may reflect: merges
	// completed before the submit through merges started before the reply.
	verLo, verHi int32
	status       uint8
}

// settle records a reply's outcome on its sample. It runs on the client
// that received the reply, after the receive time was stamped, so the row
// check (one reply in sampleEvery) is off the timed path.
func (fx *fixture) settle(s *sample, rep fastcolumns.Reply, checkRows bool) {
	s.verHi = fx.mergesStarted.Load()
	switch {
	case rep.Err == nil:
	case errors.Is(rep.Err, context.DeadlineExceeded), errors.Is(rep.Err, context.Canceled):
		s.status = statusCancelled
		return
	default:
		s.status = statusErrored
		return
	}
	s.rows = int32(len(rep.RowIDs))
	if d := fx.w.deadline; d > 0 && s.recv-s.due > int64(d) {
		s.status = statusLate
		return
	}
	if checkRows && !fx.rowsMatch(s.pred, rep.RowIDs) {
		s.status = statusWrong
	}
}

// rowsMatch reports whether ids is strictly ascending, inside the table,
// and every row's value satisfies p. With the count check in verify that
// is set equality with the true result.
func (fx *fixture) rowsMatch(p fastcolumns.Predicate, ids []fastcolumns.RowID) bool {
	limit := int64(len(fx.base)) + fx.appendCount.Load()
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			return false
		}
		if int64(id) >= limit {
			return false
		}
		var v fastcolumns.Value
		if int(id) < len(fx.base) {
			v = fx.base[id]
		} else {
			v = fx.appended[int(id)-len(fx.base)]
		}
		if !p.Matches(v) {
			return false
		}
	}
	return true
}

// expected is the true result size of p on table version ver.
func (fx *fixture) expected(p fastcolumns.Predicate, ver int32) int32 {
	lo := sort.Search(len(fx.sorted), func(i int) bool { return fx.sorted[i] >= p.Lo })
	hi := sort.Search(len(fx.sorted), func(i int) bool { return fx.sorted[i] > p.Hi })
	n := hi - lo
	if ver > 0 {
		for _, v := range fx.appended[:fx.mergeAt[ver-1]] {
			if p.Matches(v) {
				n++
			}
		}
	}
	return int32(n)
}

// verify is the count oracle, run after the generators have stopped: a
// reply is right when its row count equals the true count on some table
// version it could have seen. It marks the others statusWrong.
func (fx *fixture) verify(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.status != statusOK {
			continue
		}
		right := false
		for v := s.verLo; v <= s.verHi && !right; v++ {
			right = fx.expected(s.pred, v) == s.rows
		}
		if !right {
			s.status = statusWrong
		}
	}
}

// sampleOffset picks, from the seed, which replies of every sampleEvery
// get the row check.
func sampleOffset(seed int64) int {
	return int((seed%sampleEvery + sampleEvery) % sampleEvery)
}
