package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fastcolumns"
	rt "fastcolumns/internal/runtime"
)

// submitFn is the front door a generator drives: Server.SubmitContext, or
// the recomposed scheduler of a traced run.
type submitFn func(ctx context.Context, p fastcolumns.Predicate) (<-chan fastcolumns.Reply, error)

// interval is a start and end in nanoseconds since the run's start.
type interval struct{ start, end int64 }

// runLog is everything one generator run recorded.
type runLog struct {
	// start is the instant every time in the log is relative to.
	start   time.Time
	samples []sample
	// units is the number of independent latency samples: queries, or
	// bursts when a burst's replies arrive together.
	units int
	// wall is the measured time: the schedule's length in an open loop,
	// first submit to last reply in a closed one.
	wall time.Duration
	// spun is how long the open loop's dispatcher yielded in a loop rather
	// than slept: the share of one processor the generator kept busy.
	spun time.Duration
	// appends holds each Table.Append's latency from its scheduled time.
	appends []int64
	merges  []interval
	// writeErr is the error that stopped the writer early, if any.
	writeErr error
}

// drive runs the workload's generator against submit for dur and returns
// what it saw, with every reply already checked. tbl, when non-nil,
// receives the workload's writer; check is false only for the no-op
// scheduler probe, whose replies carry no rows.
func (fx *fixture) drive(submit submitFn, tbl *fastcolumns.Table, seed int64, dur time.Duration, check bool) *runLog {
	start := time.Now()
	log := &runLog{start: start}
	var writer sync.WaitGroup
	if tbl != nil && fx.w.appendRate > 0 {
		writer.Add(1)
		rt.Go(func() {
			defer writer.Done()
			fx.write(tbl, start, dur, log)
		})
	}
	if fx.w.open() {
		fx.openLoop(submit, seed, start, dur, check, log)
	} else {
		fx.closedLoop(submit, seed, start, dur, check, log)
	}
	writer.Wait()
	if check {
		fx.verify(log.samples)
	}
	return log
}

func since(start time.Time) int64 { return int64(time.Since(start)) }

// spinWindow is how long before a due time the generators stop sleeping
// and start yielding in a loop. A sleeping Go program on Linux wakes with
// about a millisecond of slack (an idle runtime waits in epoll, whose
// timeout is in milliseconds), which at 5,000 arrivals/s would turn a
// Poisson schedule into clumps a millisecond apart.
const spinWindow = 2 * time.Millisecond

// waitUntil returns at t, or at once when t has passed: it sleeps while t
// is more than spinWindow away and then yields the processor in a loop,
// so other goroutines run but the wake-up is on time. It returns how long
// it yielded.
func waitUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	began := time.Now()
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return time.Since(began)
}

// openLoop sends on a Poisson schedule drawn from the seed, whatever the
// server does. One dispatcher submits; each reply is stamped by its own
// parked goroutine. Latency counts from the intended send time, so a
// stalled dispatcher charges its lateness to the queries it delayed.
func (fx *fixture) openLoop(submit submitFn, seed int64, start time.Time, dur time.Duration, check bool, log *runLog) {
	w := fx.w
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	for t := rng.ExpFloat64() / w.rate; t < dur.Seconds(); t += rng.ExpFloat64() / w.rate {
		due = append(due, int64(t*1e9))
	}
	samples := make([]sample, len(due))
	for i := range samples {
		samples[i].due = due[i]
		samples[i].pred = w.pred(rng, fx.base)
	}
	offset := sampleOffset(seed)
	var parked sync.WaitGroup
	for i := range samples {
		s := &samples[i]
		intended := start.Add(time.Duration(s.due))
		log.spun += waitUntil(intended)
		ctx, cancel := context.WithDeadline(context.Background(), intended.Add(w.deadline))
		s.verLo = fx.mergesDone.Load()
		s.sent = since(start)
		ch, err := submit(ctx, s.pred)
		s.admitted = since(start)
		if err != nil {
			cancel()
			s.recv = s.admitted
			s.status = statusShed
			continue
		}
		checkRows := check && (i+offset)%sampleEvery == 0
		parked.Add(1)
		rt.Go(func() {
			defer parked.Done()
			rep := <-ch
			s.recv = since(start)
			cancel()
			fx.settle(s, rep, checkRows)
		})
	}
	parked.Wait()
	log.samples = samples
	log.units = len(samples)
	log.wall = dur
}

// closedLoop runs the workload's clients until dur has passed: each
// submits a burst, waits for all its replies, checks the sampled ones,
// and repeats — so a slower server is offered less.
func (fx *fixture) closedLoop(submit submitFn, seed int64, start time.Time, dur time.Duration, check bool, log *runLog) {
	w := fx.w
	perClient := make([][]sample, w.clients)
	var clients sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		clients.Add(1)
		rt.Go(func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			offset := sampleOffset(seed)
			chans := make([]<-chan fastcolumns.Reply, w.burst)
			replies := make([]fastcolumns.Reply, w.burst)
			out := make([]sample, 0, 1<<14)
			for since(start) < int64(dur) {
				first := len(out)
				for j := 0; j < w.burst; j++ {
					s := sample{pred: w.pred(rng, fx.base), verLo: fx.mergesDone.Load()}
					s.sent = since(start)
					s.due = s.sent
					ch, err := submit(context.Background(), s.pred)
					s.admitted = since(start)
					if err != nil {
						s.recv = s.admitted
						s.status = statusShed
					}
					chans[j] = ch
					out = append(out, s)
				}
				for j := range chans {
					if chans[j] != nil {
						replies[j] = <-chans[j]
						out[first+j].recv = since(start)
					}
				}
				for j := range chans {
					if chans[j] != nil {
						k := first + j
						fx.settle(&out[k], replies[j], check && (k+offset)%sampleEvery == 0)
					}
				}
			}
			perClient[c] = out
		})
	}
	clients.Wait()
	log.wall = time.Since(start)
	for _, out := range perClient {
		log.samples = append(log.samples, out...)
	}
	log.units = len(log.samples) / w.burst
}

// write is the workload's writer: it sleeps until the next Table.Append is
// due, one every 1/appendRate seconds on a fixed schedule, and calls
// Table.Merge after every mergeEvery appends. An append's latency counts
// from its scheduled time to its return, so the appends a merge delays are
// charged the delay.
func (fx *fixture) write(tbl *fastcolumns.Table, start time.Time, dur time.Duration, log *runLog) {
	w := fx.w
	gap := time.Duration(float64(time.Second) / w.appendRate)
	for due := time.Duration(0); due < dur; due += gap {
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		if err := fx.appendNext(tbl); err != nil {
			log.writeErr = err
			return
		}
		log.appends = append(log.appends, since(start)-int64(due))
		if int(fx.appendCount.Load())%w.mergeEvery == 0 {
			m := interval{start: since(start)}
			if err := fx.merge(tbl); err != nil {
				log.writeErr = err
				return
			}
			m.end = since(start)
			log.merges = append(log.merges, m)
		}
	}
}

// appendNext appends the next pre-drawn value.
func (fx *fixture) appendNext(tbl *fastcolumns.Table) error {
	n := fx.appendCount.Load()
	if int(n) >= len(fx.appended) {
		return fmt.Errorf("benchmark: more than %d appends in one run", len(fx.appended))
	}
	if err := tbl.Append([]fastcolumns.Value{fx.appended[n]}); err != nil {
		return err
	}
	fx.appendCount.Store(n + 1)
	return nil
}

// merge runs Table.Merge and keeps the version ledger the oracle reads.
func (fx *fixture) merge(tbl *fastcolumns.Table) error {
	fx.mergeAt = append(fx.mergeAt, int(fx.appendCount.Load()))
	fx.mergesStarted.Add(1)
	err := tbl.Merge()
	fx.mergesDone.Add(1)
	return err
}
