package main

import (
	"runtime"
	"time"

	"misam"
	"misam/internal/fleet"
)

// serveCounters sums the public counters of every server a phase used.
type serveCounters struct {
	served int64
	fleet  fleet.Stats
	cache  misam.CacheStats
	fast   misam.FastPathStats
	tiles  misam.TileCacheStats
	drain  time.Duration
}

func (c *serveCounters) add(t *target, drain time.Duration) {
	c.served += t.ok.Load()
	fs := t.srv.Fleet().Stats()
	c.fleet.Acquires += fs.Acquires
	c.fleet.Preferred += fs.Preferred
	c.fleet.AffinityHits += fs.AffinityHits
	c.fleet.AffinityMisses += fs.AffinityMisses
	c.fleet.Waits += fs.Waits
	cs, _ := t.fw.CacheStats()
	c.cache.Hits += cs.Hits
	c.cache.Misses += cs.Misses
	c.cache.FastHits += cs.FastHits
	c.cache.FastMisses += cs.FastMisses
	c.cache.Coalesced += cs.Coalesced
	c.cache.Evictions += cs.Evictions
	fp, _ := t.fw.FastPathStats()
	c.fast.Served += fp.Served
	c.fast.Fast += fp.Fast
	c.fast.Slow += fp.Slow
	c.fast.Verifier.Offered += fp.Verifier.Offered
	c.fast.Verifier.Dropped += fp.Verifier.Dropped
	c.fast.Verifier.Verified += fp.Verifier.Verified
	c.fast.Verifier.Agreed += fp.Verifier.Agreed
	c.fast.Verifier.Errors += fp.Verifier.Errors
	ts, _ := t.fw.TileCacheStats()
	c.tiles.CoarseSkips += ts.CoarseSkips
	c.tiles.BoundAborts += ts.BoundAborts
	c.drain += drain
}

// segment prepares one server for a timed pass: first when given,
// otherwise a fresh clone of the model, warmed when the workload asks.
func (r *run) segment(name string, first *target, model []byte, st *stream, c *conn) (*target, error) {
	t := first
	if t == nil {
		var err error
		if t, err = cloneTarget(model, r.w); err != nil {
			return nil, err
		}
	}
	if r.w.warm {
		r.addPhase(newPhase("warm-"+name, warm(t, st, c), 0))
	}
	runtime.GC()
	return t, nil
}

// finish reconciles and stops one segment's server, folding its counters
// into c.
func (r *run) finish(name string, t *target, c *serveCounters) {
	drain, err := t.reconcile()
	if err != nil {
		r.problem("%s: counters do not reconcile: %v", name, err)
	}
	c.add(t, drain)
	t.stop()
}

// openPhase sends n requests at the workload's rate, starting at request
// from of the stream. A unique stream runs from its start once per
// server: each pass over it goes to a fresh clone, so every server sees
// every pair once. first, when non-nil, serves the first pass.
// allocBytes is the heap allocated while requests were in flight.
func (r *run) openPhase(name string, first *target, model []byte, st *stream, from, n int, conns []*conn) (res openResult, c serveCounters, allocBytes uint64, err error) {
	if r.w.unique {
		from = 0
	}
	for sent := 0; sent < n; {
		k := n - sent
		if r.w.unique && k > len(st.order) {
			k = len(st.order)
		}
		t, err := r.segment(name, first, model, st, conns[0])
		if err != nil {
			return res, c, allocBytes, err
		}
		first = nil
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		seg := openLoop(t, st, from, k, r.w.rate, conns)
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		r.finish(name, t, &c)
		res.answers = append(res.answers, seg.answers...)
		res.latency = append(res.latency, seg.latency...)
		res.lag = append(res.lag, seg.lag...)
		res.elapsed += seg.elapsed
		sent += k
	}
	p := newPhase(name, res.answers, res.elapsed)
	p.LagP99Ms = ms(percentile(append([]time.Duration(nil), res.lag...), 0.99))
	r.addPhase(p)
	for i, a := range res.answers {
		if a.err != nil {
			res.latency[i] = failedLatency
		}
	}
	return res, c, allocBytes, nil
}

// closedPhase keeps every connection in conns busy for d of client
// time. A unique stream is never wrapped: when a server has seen every
// pair, the loop moves on to a fresh clone.
func (r *run) closedPhase(name string, model []byte, st *stream, d time.Duration, conns []*conn) (closedResult, error) {
	var res closedResult
	var c serveCounters
	for res.elapsed < d {
		t, err := r.segment(name, nil, model, st, conns[0])
		if err != nil {
			return res, err
		}
		seg := closedLoop(t, st, d-res.elapsed, !r.w.unique, conns)
		r.finish(name, t, &c)
		res.answers = append(res.answers, seg.answers...)
		res.elapsed += seg.elapsed
	}
	r.addPhase(newPhase(name, res.answers, res.elapsed))
	return res, nil
}
