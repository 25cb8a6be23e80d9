package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"misam"
	"misam/internal/features"
	"misam/internal/memo"
	"misam/internal/server"
	"misam/internal/sim"
	"misam/internal/sparse"
)

// traceRequests is how many leading requests of the stream the traced
// passes replay.
const traceRequests = 400

// span is one timed layer call. Spans of one request share Req; a
// layer span's Parent is its request's root span.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// layerTotals is one layer's aggregate over the traced pass.
type layerTotals struct {
	Calls  int     `json:"calls"`
	Us     float64 `json:"total_us"`
	SelfUs float64 `json:"self_us"`
	// PerRequestUs is the layer's time averaged over every traced
	// request, counting requests that never reach the layer as zero.
	PerRequestUs float64 `json:"per_request_us"`
}

// summarize computes each layer's totals and self time: a span's
// duration minus the part of it its child spans cover.
func (t *tracer) summarize(requests int) map[string]*layerTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		d := float64(s.End-s.Start) / 1e3
		l.Calls++
		l.Us += d
		l.SelfUs += d - float64(child[i])/1e3
	}
	for _, l := range out {
		l.PerRequestUs = l.Us / float64(requests)
	}
	return out
}

// replica walks a deployment's request path from outside, calling each
// layer's public function in the order the server does and timing each
// call as a span. It owns its own state — analysis cache, tile cache,
// fleet — built like the deployment's, so its caches hit and miss where
// the server's do.
type replica struct {
	w     *workload
	fw    *misam.Framework
	fleet *misam.Fleet
	cache *memo.Cache
	tiles *sim.TileCache
	tr    *tracer

	a, b  sparse.CSR
	fused features.FusedScratch

	fastHits int
	// cycles and simUs accumulate the exact simulations' simulated
	// cycles (all four designs) and host time; fpBytes the fingerprinted
	// bytes.
	cycles  int64
	simUs   float64
	fpBytes int64
}

func newReplica(fw *misam.Framework, w *workload) *replica {
	cfg := w.deployment
	if cfg.Placement {
		// PlanPlacement resolves features through the framework's own
		// cache, as the deployment's does.
		fw.WithCache(cfg.CacheBytes)
	}
	return &replica{
		w:     w,
		fw:    fw,
		fleet: fw.NewFleet(cfg.Devices),
		cache: memo.New(cfg.CacheBytes),
		tiles: sim.NewTileCache(cfg.TileCacheBytes),
		tr:    &tracer{t0: time.Now()},
	}
}

// gate is the deployment's fast-path confidence threshold.
func (r *replica) gate() float64 {
	if c := r.w.deployment.Confidence; c > 0 {
		return c
	}
	return misam.DefaultFastPathConfig().Confidence
}

// verifyEvery is the deployment's audit sampling interval.
func (r *replica) verifyEvery() int {
	if v := r.w.deployment.VerifySample; v > 0 {
		return v
	}
	return misam.DefaultFastPathConfig().VerifySample
}

// serve replays one request through the deployment's path.
func (r *replica) serve(ctx context.Context, req int, body []byte, ref *reference) served {
	tr := r.tr
	root := tr.begin("request", req, -1)
	defer tr.end(root)

	s := tr.begin("sparse.parse", req, root)
	va, rest, err := misam.ParseWireMatrix(body)
	var vb misam.WireView
	if err == nil {
		vb, _, err = misam.ParseWireMatrix(rest)
	}
	tr.end(s)
	if err != nil {
		return served{err: err}
	}
	cfg := r.w.deployment
	switch {
	case cfg.FastPath && !cfg.Placement:
		return r.fastWire(ctx, req, root, va, vb, ref)
	case cfg.FastPath:
		return r.fastPlaced(ctx, req, root, va, vb, ref)
	default:
		return r.full(ctx, req, root, va, vb, ref)
	}
}

func (r *replica) fingerprint(req, root int, va, vb misam.WireView) memo.Key {
	s := r.tr.begin("sparse.fingerprint", req, root)
	k := memo.PairKey(va.Fingerprint(), vb.Fingerprint())
	r.tr.end(s)
	r.fpBytes += int64(va.EncodedLen() + vb.EncodedLen())
	return k
}

func (r *replica) build(req, root int, a, b *sparse.CSR) (*sim.Workload, error) {
	s := r.tr.begin("sim.workload_build", req, root)
	w, err := sim.NewWorkload(a, b)
	r.tr.end(s)
	return w, err
}

// decodeInto decodes into the replica's scratch CSRs, aliasing the body
// where alignment allows (the zero-copy and plain full paths).
func (r *replica) decodeInto(req, root int, va, vb misam.WireView) (*sparse.CSR, *sparse.CSR) {
	s := r.tr.begin("sparse.decode", req, root)
	a, b := va.DecodeInto(&r.a), vb.DecodeInto(&r.b)
	r.tr.end(s)
	return a, b
}

func (r *replica) acquire(ctx context.Context, req, root int, plan *misam.PlacementRequest) (*misam.Accelerator, error) {
	s := r.tr.begin("fleet.acquire", req, root)
	defer r.tr.end(s)
	if plan != nil {
		return r.fleet.AcquireScored(ctx, plan.Proposed(), plan)
	}
	return r.fleet.Acquire(ctx)
}

func (r *replica) release(req, root int, dev *misam.Accelerator) {
	s := r.tr.begin("fleet.acquire", req, root)
	r.fleet.Release(dev)
	r.tr.end(s)
}

// fastEntry resolves the features-plus-baseline entry through the
// replica's cache.
func (r *replica) fastEntry(ctx context.Context, req, root int, key memo.Key, w *sim.Workload) (memo.FastEntry, error) {
	s := r.tr.begin("memo.probe", req, root)
	ent, ok := r.cache.GetFast(key)
	r.tr.end(s)
	if ok {
		return ent, nil
	}
	return r.buildFastEntry(ctx, req, root, key, w, false)
}

// buildFastEntry extracts the features and baseline stats of a fast
// entry and caches it. fused selects the zero-copy path's one-pass
// extractor.
func (r *replica) buildFastEntry(ctx context.Context, req, root int, key memo.Key, w *sim.Workload, fused bool) (memo.FastEntry, error) {
	var ent memo.FastEntry
	s := r.tr.begin("features.extract", req, root)
	if fused {
		ent.Features, _ = r.fused.Extract(w.A, w.B)
	} else {
		ent.Features = features.Extract(w.A, w.B)
	}
	r.tr.end(s)
	s = r.tr.begin("baseline.stats", req, root)
	ent.Baseline = w.BaselineStats()
	r.tr.end(s)
	ent, _, err := r.cache.DoFast(ctx, key, func(context.Context) (memo.FastEntry, error) { return ent, nil })
	return ent, err
}

// analysis resolves the full analysis (features, four exact
// simulations, baseline stats) through the replica's cache.
func (r *replica) analysis(ctx context.Context, req, root int, key memo.Key, w *sim.Workload) (*misam.Analysis, error) {
	s := r.tr.begin("memo.probe", req, root)
	an, ok := r.cache.Get(key)
	r.tr.end(s)
	if ok {
		return an, nil
	}
	an = &misam.Analysis{}
	s = r.tr.begin("features.extract", req, root)
	an.Features = features.Extract(w.A, w.B)
	r.tr.end(s)
	w.AttachTileCache(r.tiles)
	s = r.tr.begin("sim.simulate_all", req, root)
	res, err := w.SimulateAllCtx(ctx)
	r.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.simUs += float64(r.tr.spans[s].End-r.tr.spans[s].Start) / 1e3
	for _, x := range res {
		r.cycles += x.Cycles
	}
	an.Results = res
	s = r.tr.begin("baseline.stats", req, root)
	an.Baseline = w.BaselineStats()
	r.tr.end(s)
	an, _, err = r.cache.Do(ctx, key, func(context.Context) (*misam.Analysis, error) { return an, nil })
	return an, err
}

// decide runs the full tier's selector, then decideProposed.
func (r *replica) decide(req, root int, dev *misam.Accelerator, v features.Vector) sim.DesignID {
	snap := r.fw.Registry().Current()
	s := r.tr.begin("mltree.select", req, root)
	proposed := snap.Select(v)
	r.tr.end(s)
	return r.decideProposed(req, root, dev, v, proposed)
}

// decideProposed runs the device's decide/apply transaction and the
// latency prediction for the chosen design.
func (r *replica) decideProposed(req, root int, dev *misam.Accelerator, v features.Vector, proposed sim.DesignID) sim.DesignID {
	snap := r.fw.Registry().Current()
	s := r.tr.begin("reconfig.decide", req, root)
	dec := dev.DecideApplyWith(snap.Engine(), v, proposed, 1)
	r.tr.end(s)
	s = r.tr.begin("reconfig.predict", req, root)
	snap.Engine().Predictor.Predict(v, dec.Target)
	r.tr.end(s)
	return dec.Target
}

// gateSelect runs the confidence gate's selector call. The server sets
// no margin requirement, so the leaf confidence alone decides.
func (r *replica) gateSelect(req, root int, v features.Vector) (sim.DesignID, bool) {
	s := r.tr.begin("mltree.select", req, root)
	proposed, conf, _ := r.fw.Registry().Current().SelectConfident(v)
	r.tr.end(s)
	return proposed, conf >= r.gate()
}

// answer checks the replica's decision like a server reply.
func answer(design sim.DesignID, path string, an *misam.Analysis, bs misam.BaselineStats, ref *reference) served {
	cmp := misam.CompareBaselineStats(bs)
	simMs := 0.0
	if an != nil {
		simMs = an.Results[design].Seconds * 1e3
	}
	return checkReport(design.String(), path, simMs, cmp.CPUSeconds*1e3, cmp.GPUSeconds*1e3, cmp.TrapezoidSeconds*1e3, ref)
}

// fastWire is the zero-copy two-tier path (fast path, no placement).
func (r *replica) fastWire(ctx context.Context, req, root int, va, vb misam.WireView, ref *reference) served {
	dev, err := r.acquire(ctx, req, root, nil)
	if err != nil {
		return served{err: err}
	}
	defer r.release(req, root, dev)
	key := r.fingerprint(req, root, va, vb)
	var w *sim.Workload
	s := r.tr.begin("memo.probe", req, root)
	ent, ok := r.cache.GetFast(key)
	r.tr.end(s)
	if !ok {
		a, b := r.decodeInto(req, root, va, vb)
		if w, err = r.build(req, root, a, b); err != nil {
			return served{err: err}
		}
		if ent, err = r.buildFastEntry(ctx, req, root, key, w, true); err != nil {
			return served{err: err}
		}
	}
	proposed, pass := r.gateSelect(req, root, ent.Features)
	if pass {
		r.fastHits++
		return answer(r.decideProposed(req, root, dev, ent.Features, proposed), misam.PathFast, nil, ent.Baseline, ref)
	}
	if w == nil {
		a, b := r.decodeInto(req, root, va, vb)
		if w, err = r.build(req, root, a, b); err != nil {
			return served{err: err}
		}
	}
	an, err := r.analysis(ctx, req, root, key, w)
	if err != nil {
		return served{err: err}
	}
	return answer(r.decide(req, root, dev, an.Features), misam.PathFull, an, ent.Baseline, ref)
}

// full is the cached full pipeline (no fast path).
func (r *replica) full(ctx context.Context, req, root int, va, vb misam.WireView, ref *reference) served {
	a, b := r.decodeInto(req, root, va, vb)
	w, err := r.build(req, root, a, b)
	if err != nil {
		return served{err: err}
	}
	key := r.fingerprint(req, root, va, vb)
	an, err := r.analysis(ctx, req, root, key, w)
	if err != nil {
		return served{err: err}
	}
	dev, err := r.acquire(ctx, req, root, nil)
	if err != nil {
		return served{err: err}
	}
	defer r.release(req, root, dev)
	return answer(r.decide(req, root, dev, an.Features), misam.PathFull, an, an.Baseline, ref)
}

// fastPlaced is the two-tier path with bitstream-aware placement: the
// operands are copied (a sampled audit outlives the request), the
// placement plan picks the device, and one in verifyEvery fast hits is
// audited on the pruned slow tier — in the background on the server,
// inline here so the audit's cost is measured.
func (r *replica) fastPlaced(ctx context.Context, req, root int, va, vb misam.WireView, ref *reference) served {
	s := r.tr.begin("sparse.decode", req, root)
	a, b := va.DecodeCopy(), vb.DecodeCopy()
	r.tr.end(s)
	w, err := r.build(req, root, a, b)
	if err != nil {
		return served{err: err}
	}
	key := r.fingerprint(req, root, va, vb)
	s = r.tr.begin("placement.plan", req, root)
	plan, err := r.fw.PlanPlacement(ctx, w, misam.PlacementConfig{QueueWeight: r.w.deployment.QueueWeight})
	r.tr.end(s)
	if err != nil {
		return served{err: err}
	}
	dev, err := r.acquire(ctx, req, root, plan)
	if err != nil {
		return served{err: err}
	}
	defer r.release(req, root, dev)
	ent, err := r.fastEntry(ctx, req, root, key, w)
	if err != nil {
		return served{err: err}
	}
	proposed, pass := r.gateSelect(req, root, ent.Features)
	if pass {
		r.fastHits++
		design := r.decideProposed(req, root, dev, ent.Features, proposed)
		if (r.fastHits-1)%r.verifyEvery() == 0 {
			w.AttachTileCache(r.tiles)
			s = r.tr.begin("sim.simulate_pruned", req, root)
			_, err := w.SimulateAllPrunedCtx(ctx)
			r.tr.end(s)
			if err != nil {
				return served{err: err}
			}
		}
		return answer(design, misam.PathFast, nil, ent.Baseline, ref)
	}
	an, err := r.analysis(ctx, req, root, key, w)
	if err != nil {
		return served{err: err}
	}
	return answer(r.decide(req, root, dev, an.Features), misam.PathFull, an, ent.Baseline, ref)
}

// outsideEntry names the replica's layers that the deployment runs
// before or after its library entry point rather than inside it.
func (r *replica) outsideEntry(name string) bool {
	cfg := r.w.deployment
	switch name {
	case "sparse.parse", "fleet.acquire":
		return true
	case "sparse.decode", "sim.workload_build":
		return !cfg.FastPath || cfg.Placement
	case "placement.plan", "sim.simulate_pruned":
		return cfg.Placement
	}
	return false
}

// entryTimes is, per traced request, the time of the layers the library
// entry point covers: the traced counterpart of misam.direct_us.
func (r *replica) entryTimes() []time.Duration {
	var out []time.Duration
	root := -1
	for _, s := range r.tr.spans {
		d := time.Duration(s.End - s.Start)
		switch {
		case s.Parent < 0:
			out = append(out, d)
			root = len(out) - 1
		case r.outsideEntry(s.Name):
			out[root] -= d
		}
	}
	return out
}

// direct calls the deployment's library entry point on one request,
// returning the answer and the entry point's own duration. Parsing,
// decoding and device checkout happen outside the timed call.
func direct(ctx context.Context, t *directTarget, body []byte, ref *reference) (served, time.Duration) {
	cfg := t.w.deployment
	va, rest, err := misam.ParseWireMatrix(body)
	var vb misam.WireView
	if err == nil {
		vb, _, err = misam.ParseWireMatrix(rest)
	}
	if err != nil {
		return served{err: err}, 0
	}
	fl := t.srv.Fleet()
	var rep misam.Report
	var cmp misam.BaselineComparison
	var d time.Duration
	switch {
	case cfg.FastPath && !cfg.Placement:
		dev, err := fl.Acquire(ctx)
		if err != nil {
			return served{err: err}, 0
		}
		t0 := time.Now()
		rep, cmp, err = t.fw.AnalyzeFastWire(ctx, dev, va, vb, &t.scratch)
		d = time.Since(t0)
		fl.Release(dev)
		if err != nil {
			return served{err: err}, d
		}
	default:
		var a, b *misam.Matrix
		if cfg.FastPath {
			a, b = va.DecodeCopy(), vb.DecodeCopy()
		} else {
			a, b = t.scratch.DecodeA(va), t.scratch.DecodeB(vb)
		}
		w, err := misam.NewWorkload(a, b)
		if err != nil {
			return served{err: err}, 0
		}
		var dev *misam.Accelerator
		if cfg.Placement {
			dev, err = t.fw.AcquirePlaced(ctx, fl, w, misam.PlacementConfig{QueueWeight: cfg.QueueWeight})
		} else {
			dev, err = fl.Acquire(ctx)
		}
		if err != nil {
			return served{err: err}, 0
		}
		t0 := time.Now()
		if cfg.FastPath {
			rep, err = t.fw.AnalyzeFastOn(ctx, dev, w)
		} else {
			rep, err = t.fw.AnalyzeOn(ctx, dev, w)
		}
		d = time.Since(t0)
		fl.Release(dev)
		if err != nil {
			return served{err: err}, d
		}
		cmp = misam.CompareBaselinesWorkload(w)
	}
	return checkReport(rep.Design.String(), rep.Path, rep.SimulatedSeconds*1e3,
		cmp.CPUSeconds*1e3, cmp.GPUSeconds*1e3, cmp.TrapezoidSeconds*1e3, ref), d
}

// directTarget is a deployment configured exactly like the served one
// (the server constructor applies the configuration) but driven through
// the library, without HTTP.
type directTarget struct {
	w       *workload
	fw      *misam.Framework
	srv     *server.Server
	scratch misam.WireScratch
}

// traced measures the per-layer metrics: an HTTP serial pass, the same
// requests through the library entry point, the traced replica, and an
// open-loop pass for the serving counters.
func (r *run) traced() error {
	w := r.w
	openD, _ := phaseDurations(r.seconds)
	openN := w.openCount(openD)
	conns := newConns(runtime.GOMAXPROCS(0))
	defer closeConns(conns)
	t, _, err := setUp(w, conns[0])
	if err != nil {
		return err
	}
	model, err := modelBytes(t.fw)
	t.stop()
	if err != nil {
		return err
	}
	st, err := buildStream(w, r.seed, w.streamLength(openN))
	if err != nil {
		return err
	}
	n := traceRequests
	if n > len(st.order) {
		n = len(st.order)
	}
	ctx := context.Background()

	// HTTP serial pass.
	ht, err := r.segment("http", nil, model, st, conns[0])
	if err != nil {
		return err
	}
	answers, httpLat, el := serial(ht, st, n, conns[0])
	r.addPhase(newPhase("http-serial", answers, el))
	var httpCounters serveCounters
	r.finish("http-serial", ht, &httpCounters)

	// The same requests through the library entry point.
	dt, err := newDirectTarget(model, w)
	if err != nil {
		return err
	}
	if w.warm {
		warmAnswers := make([]served, len(st.bodies))
		for p := range st.bodies {
			warmAnswers[p], _ = direct(ctx, dt, st.bodies[p], &st.refs[p])
		}
		r.addPhase(newPhase("warm-direct", warmAnswers, 0))
	}
	runtime.GC()
	directLat := make([]time.Duration, n)
	answers = make([]served, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := st.order[i]
		answers[i], directLat[i] = direct(ctx, dt, st.bodies[p], &st.refs[p])
	}
	r.addPhase(newPhase("direct", answers, time.Since(t0)))
	dt.srv.Close()

	// The traced replica.
	fw, err := cloneFramework(model)
	if err != nil {
		return err
	}
	rp := newReplica(fw, w)
	if w.warm {
		warmAnswers := make([]served, len(st.bodies))
		for p := range st.bodies {
			warmAnswers[p] = rp.serve(ctx, -1, st.bodies[p], &st.refs[p])
		}
		r.addPhase(newPhase("warm-replica", warmAnswers, 0))
		rp.tr.spans = rp.tr.spans[:0]
		rp.cycles, rp.simUs, rp.fpBytes, rp.fastHits = 0, 0, 0, 0
		rp.tiles = sim.NewTileCache(w.deployment.TileCacheBytes)
	}
	runtime.GC()
	answers = make([]served, n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		p := st.order[i]
		answers[i] = rp.serve(ctx, i, st.bodies[p], &st.refs[p])
	}
	r.addPhase(newPhase("replica", answers, time.Since(t0)))
	layers := rp.tr.summarize(n)
	entryLat := rp.entryTimes()
	if err := writeTrace(w.name, r.seed, rp.tr.spans, layers); err != nil {
		return err
	}

	// Open loop for the serving counters.
	open, counters, allocBytes, err := r.openPhase("load", nil, model, st, 0, openN, conns)
	if err != nil {
		return err
	}
	r.loadCounters(counters)

	// Per-layer metrics.
	per := func(name string) float64 {
		if l := layers[name]; l != nil {
			return l.PerRequestUs
		}
		return 0
	}
	httpP50 := percentile(httpLat, 0.5)
	directP50 := percentile(directLat, 0.5)
	r.set("server.overhead_us", us(httpP50-directP50), "us")
	r.set("misam.direct_us", us(directP50), "us")
	r.set("trace.overhead_us", us(percentile(entryLat, 0.5)-directP50), "us")
	for _, name := range []string{
		"sparse.parse", "sparse.fingerprint", "memo.probe", "mltree.select",
		"reconfig.decide", "reconfig.predict", "sparse.decode", "sim.workload_build",
		"features.extract", "sim.simulate_all", "baseline.stats", "placement.plan",
		"fleet.acquire", "sim.simulate_pruned",
	} {
		r.set(name+"_us", per(name), "us")
	}
	fpUs := 0.0
	if l := layers["sparse.fingerprint"]; l != nil {
		fpUs = l.Us
	}
	r.set("sparse.fingerprint_gbps", ratio(float64(rp.fpBytes)/1e3, fpUs), "GB/s")
	r.set("sim.cycles_per_us", ratio(float64(rp.cycles), rp.simUs), "cycles/us")
	ts := rp.tiles.Stats()
	r.set("sim.tile_hit_ratio", ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses)), "ratio")
	r.set("proc.alloc_kb_per_req", float64(allocBytes)/1024/float64(openN), "KB")
	r.set("loadgen.lag_p99_ms", ms(percentile(open.lag, 0.99)), "ms")
	return nil
}

// loadCounters derives the per-layer ratios the servers' own counters
// give for the open-loop pass.
func (r *run) loadCounters(c serveCounters) {
	n := float64(c.served)
	r.set("fleet.affinity_hit_ratio", ratio(float64(c.fleet.AffinityHits), float64(c.fleet.Preferred)), "ratio")
	r.set("fleet.waits_per_1k", 1000*ratio(float64(c.fleet.Waits), float64(c.fleet.Acquires)), "1/1k")
	hits := c.cache.Hits + c.cache.FastHits + c.cache.Coalesced
	r.set("memo.hit_ratio", ratio(float64(hits), float64(hits+c.cache.Misses+c.cache.FastMisses)), "ratio")
	r.set("memo.evictions_per_1k", 1000*ratio(float64(c.cache.Evictions), n), "1/1k")
	v := c.fast.Verifier
	r.set("misam.fast_share", ratio(float64(c.fast.Fast), n), "ratio")
	r.set("online.verify_offered_per_1k", 1000*ratio(float64(v.Offered), n), "1/1k")
	r.set("online.verify_drop_ratio", ratio(float64(v.Dropped), float64(v.Offered)), "ratio")
	r.set("online.verify_agree_ratio", ratio(float64(v.Agreed), float64(v.Verified)), "ratio")
	r.set("online.drain_ms", ms(c.drain), "ms")
	r.set("sim.coarse_skips", float64(c.tiles.CoarseSkips), "count")
	r.set("sim.bound_aborts", float64(c.tiles.BoundAborts), "count")
}

func newDirectTarget(model []byte, w *workload) (*directTarget, error) {
	fw, err := cloneFramework(model)
	if err != nil {
		return nil, err
	}
	srv, err := server.NewClustered(fw, w.deployment)
	if err != nil {
		return nil, err
	}
	return &directTarget{w: w, fw: fw, srv: srv}, nil
}

// writeTrace writes the traced pass's spans and per-layer totals.
func writeTrace(workload string, seed int64, spans []span, layers map[string]*layerTotals) error {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	type layerRow struct {
		Name string `json:"name"`
		*layerTotals
	}
	rows := make([]layerRow, len(names))
	for i, n := range names {
		rows[i] = layerRow{n, layers[n]}
	}
	data, err := json.Marshal(struct {
		Layers []layerRow `json:"layers"`
		Spans  []span     `json:"spans"`
	}{rows, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	return writeFile(path, data)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
