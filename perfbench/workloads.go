package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"misam"
	"misam/internal/memo"
	"misam/internal/server"
	"misam/internal/sparse"
)

// family generates one operand pair. u in [0, 1) picks the size within
// the family's range; r draws the sparsity pattern and values. Every
// family's winner was checked against the exact four-design simulation
// when the workloads were sized; the comment on each says which design
// wins.
type family struct {
	name string
	gen  func(r *rand.Rand, u float64) (a, b *sparse.CSR)
}

// dim maps u in [0, 1) onto [lo, lo+span).
func dim(lo, span int, u float64) int { return lo + int(u*float64(span)) }

// Single-tile families (at most 4096 rows, one BRAM row tile).
var (
	// Moderately sparse A times a narrow dense B: Design 2.
	msDense = family{"ms-dense", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(256, 512, u)
		return sparse.Uniform(r, n, n, 0.02), sparse.DenseRandom(r, n, 32)
	}}
	// Power-law A times a moderately sparse multi-column B: Design 4 wins,
	// but the selector proposes Design 3 at low confidence, so these pairs
	// take the full tier and carry most of the decision-quality signal.
	graph = family{"graph", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		return sparse.PowerLaw(r, n, n, 8*n, 1.8), sparse.Uniform(r, n, 96, 0.05)
	}}
	// Squared power-law graph (A×A analytics): Design 4.
	graphSq = family{"graph-sq", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		a := sparse.PowerLaw(r, n, n, 6*n, 1.8)
		return a, a
	}}
	// FEM-like banded A times a dense multi-RHS block: Design 2.
	banded = family{"banded", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		return sparse.Banded(r, n, n, 3, 0.8), sparse.DenseRandom(r, n, 24)
	}}
	// Highly sparse square pair: Design 4.
	ssxs = family{"ss×ss", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(1024, 1024, u)
		return sparse.Uniform(r, n, n, 0.003), sparse.Uniform(r, n, n, 0.003)
	}}
	// Small sparse×sparse pair: Design 4.
	ssxsSmall = family{"ss×ss-small", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(256, 256, u)
		return sparse.Uniform(r, n, n, 0.01), sparse.Uniform(r, n, n, 0.01)
	}}
	// Small sparse A times a narrow dense B: Design 2.
	ssxdSmall = family{"ss×d-small", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(256, 256, u)
		return sparse.Uniform(r, n, n, 0.01), sparse.DenseRandom(r, n, 16)
	}}
)

// Multi-tile families (more than 4096 rows).
var (
	// Very sparse large pair: Design 4.
	mtSsxs = family{"mt-ss×ss", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(4200, 1800, u)
		return sparse.Uniform(r, n, n, 0.0006), sparse.Uniform(r, n, n, 0.0006)
	}}
	// Large banded A times a thin dense block: Design 2.
	mtBanded = family{"mt-banded", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(4200, 1800, u)
		return sparse.Banded(r, n, n, 2, 0.8), sparse.DenseRandom(r, n, 8)
	}}
)

// Lighter variants for cold-sim, whose thousand distinct pairs are all
// held in memory: same shapes and winners, fewer nonzeros.
var (
	// Design 2.
	msDenseLight = family{"ms-dense-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(256, 512, u)
		return sparse.Uniform(r, n, n, 0.01), sparse.DenseRandom(r, n, 8)
	}}
	// Design 3, proposed at low confidence (full tier).
	graphLight = family{"graph-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		return sparse.PowerLaw(r, n, n, 4*n, 1.8), sparse.Uniform(r, n, 32, 0.05)
	}}
	// Design 4.
	graphSqLight = family{"graph-sq-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		a := sparse.PowerLaw(r, n, n, 3*n, 1.8)
		return a, a
	}}
	// Design 2.
	bandedLight = family{"banded-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(512, 1536, u)
		return sparse.Banded(r, n, n, 1, 0.8), sparse.DenseRandom(r, n, 4)
	}}
	// Design 4.
	ssxsLight = family{"ss×ss-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(1024, 1024, u)
		return sparse.Uniform(r, n, n, 0.001), sparse.Uniform(r, n, n, 0.001)
	}}
	// Multi-tile, Design 4.
	mtSsxsLight = family{"mt-ss×ss-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(4200, 1800, u)
		return sparse.Uniform(r, n, n, 0.0002), sparse.Uniform(r, n, n, 0.0002)
	}}
	// Multi-tile, Design 2.
	mtBandedLight = family{"mt-banded-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(4200, 1800, u)
		return sparse.Banded(r, n, n, 1, 0.8), sparse.DenseRandom(r, n, 2)
	}}
	// Multi-tile, Design 3 at low confidence (full tier).
	mtGraphLight = family{"mt-graph-light", func(r *rand.Rand, u float64) (*sparse.CSR, *sparse.CSR) {
		n := dim(4200, 1800, u)
		return sparse.PowerLaw(r, n, n, 2*n, 1.8), sparse.Uniform(r, n, 16, 0.05)
	}}
)

// workload is one named traffic mix plus the deployment it runs against.
type workload struct {
	name string
	// deployment configures the server under test (and the framework
	// clones the traced run drives directly).
	deployment server.Config
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// serial is how many leading requests of the stream the serial
	// replay sends.
	serial int
	// unique marks a stream in which no pair repeats. No server sees a
	// pair twice: each timed pass over the stream goes to a fresh clone.
	unique bool
	// warm sends every distinct pair once before a timed phase, so the
	// analysis cache is hot when timing starts.
	warm bool
	// build generates the stream's distinct pairs and the order in which
	// requests use them, for a stream of n requests.
	build func(r *rand.Rand, seed int64, n int) ([]pairSpec, []int)
}

// pairSpec names one distinct pair of a stream: its family, its size
// within the family's range, and the seed of its pattern and values.
type pairSpec struct {
	fam  family
	size float64
	seed int64
}

func (p pairSpec) generate() (a, b *sparse.CSR) {
	return p.fam.gen(rand.New(rand.NewSource(p.seed)), p.size)
}

// workingSetSeed generates the fixed working sets of hot-wire and
// shift-churn; --seed draws their request order. A handful of popular
// pairs carries most of their traffic, so pairs drawn from --seed would
// swing the decision-quality and latency metrics from run to run far
// more than any change under test. cold-sim, which averages over a
// thousand distinct pairs, draws every pair from --seed.
const workingSetSeed = 1

// slotSize spreads the sizes of a fixed working set evenly over the
// families' ranges (a golden-ratio sequence), independent of the seed.
func slotSize(i int) float64 {
	_, f := math.Modf(float64(i) * 0.6180339887498949)
	return f
}

// pairSeed derives a pair's generator seed from the run seed, so one
// --seed fixes every matrix of the run.
func pairSeed(seed int64, salt string, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for _, c := range []byte(salt) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	return int64(h & (1<<62 - 1))
}

// workloads lists the benchmark's traffic mixes. The README explains why
// each was chosen.
//
// Prologue: a device keeps the first bitstream it loads for the whole
// run — a full reconfiguration costs 3–4 s (reconfig.DefaultTimeModel),
// more than any request here can gain — so the decision-quality metrics
// hinge on which design each device loads first. Every stream therefore
// opens with fixed families, one request for each device the serial
// replay reaches, so that design does not depend on the seed.
var workloads = []*workload{hotWire, coldSim, shiftChurn}

const (
	serveCacheBytes     = 256 << 20 // misam-serve -cache-bytes default
	serveTileCacheBytes = 64 << 20  // misam-serve -tile-cache-bytes default
)

// hotWire: a warm, Zipf-popular working set of 32 binary pairs served
// through the zero-copy two-tier path.
var hotWire = &workload{
	name: "hot-wire",
	deployment: server.Config{
		Devices:        2,
		CacheBytes:     serveCacheBytes,
		TileCacheBytes: serveTileCacheBytes,
		FastPath:       true, // default 0.9 gate, 1-in-8 background audits
	},
	rate:   600,
	serial: 4000,
	warm:   true,
	build: func(r *rand.Rand, seed int64, n int) ([]pairSpec, []int) {
		// Popularity rank i belongs to family i%4.
		fams := []family{msDense, graph, banded, ssxs}
		pairs := make([]pairSpec, 32)
		for i := range pairs {
			pairs[i] = pairSpec{fams[i%len(fams)], slotSize(i), pairSeed(workingSetSeed, "hot-wire", i)}
		}
		zipf := rand.NewZipf(r, 1.1, 4, uint64(len(pairs)-1))
		order := make([]int, n)
		for i := range order {
			order[i] = int(zipf.Uint64())
		}
		// The first request of each device is fixed (see prologue).
		order[0], order[1] = 0, 1
		return pairs, order
	},
}

// coldSim: every request is a pair the run has not seen, mixing
// single-tile and multi-tile operands won by Design 2, 3 and 4.
var coldSim = &workload{
	name: "cold-sim",
	deployment: server.Config{
		Devices:        1,
		CacheBytes:     serveCacheBytes,
		TileCacheBytes: serveTileCacheBytes,
	},
	rate:   350,
	serial: 800,
	unique: true,
	build: func(r *rand.Rand, seed int64, n int) ([]pairSpec, []int) {
		// Every block of twelve requests draws each family of the mix
		// once, in a random order, so the family shares do not depend on
		// the seed; three in twelve are multi-tile.
		mix := []family{msDenseLight, graphLight, graphSqLight, bandedLight, ssxsLight,
			ssxsSmall, ssxdSmall, msDenseLight, ssxsLight,
			mtSsxsLight, mtBandedLight, mtGraphLight}
		pairs := make([]pairSpec, n)
		order := make([]int, n)
		var block []int
		for i := range pairs {
			if i%len(mix) == 0 {
				block = r.Perm(len(mix))
			}
			if i == 0 {
				// The device's first bitstream is fixed (see prologue).
				for k, f := range block {
					if f == 0 {
						block[0], block[k] = block[k], block[0]
					}
				}
			}
			// Sizes follow the block index, so the size distribution of
			// every family is the same for every seed.
			pairs[i] = pairSpec{mix[block[i%len(mix)]], slotSize(i / len(mix)), pairSeed(seed, "cold-sim", i)}
			order[i] = i
		}
		return pairs, order
	},
}

// shiftChurnPhase is the request count of one shift-churn traffic phase.
const shiftChurnPhase = 120

// shiftChurnWindow is how many pairs of one side a phase draws from.
const shiftChurnWindow = 12

// shiftChurn alternates phases dominated by Design 2 winners and Design 4
// winners over a 48-pair working set, against an analysis cache that
// holds about a third of it, on a placed four-device fleet with pruned
// background audits.
var shiftChurn = &workload{
	name: "shift-churn",
	deployment: server.Config{
		Devices:        4,
		CacheBytes:     16 * (memo.EntryBytes() + memo.FastEntryBytes()),
		TileCacheBytes: serveTileCacheBytes,
		FastPath:       true,
		PrunedVerify:   true,
		Placement:      true,
	},
	rate:   330,
	serial: 1800,
	build: func(r *rand.Rand, seed int64, n int) ([]pairSpec, []int) {
		sides := [2][]family{
			{msDense, banded, ssxdSmall, mtBanded},    // Design 2 winners
			{ssxs, graphSq, ssxsSmall, mtSsxs, graph}, // Design 4 winners (graph at low confidence)
		}
		const perSide = 24
		pairs := make([]pairSpec, 0, 2*perSide)
		for s, fams := range sides {
			for i := 0; i < perSide; i++ {
				k := s*perSide + i
				pairs = append(pairs, pairSpec{fams[i%len(fams)], slotSize(k), pairSeed(workingSetSeed, "shift-churn", k)})
			}
		}
		order := make([]int, n)
		for i := range order {
			phase := i / shiftChurnPhase
			side := phase % 2
			// Consecutive phases of one side overlap by half a window, so
			// a pair returns after the cache has churned through the
			// other side's phase.
			start := (phase / 2 * shiftChurnWindow / 2) % perSide
			j := (start + r.Intn(shiftChurnWindow)) % perSide
			order[i] = side*perSide + j
		}
		order[0] = 0 // the first bitstream is fixed (see prologue)
		return pairs, order
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stream is one run's generated traffic: the distinct pairs, their
// binary request bodies and exact references, and the request order.
type stream struct {
	pairs  []pairSpec
	bodies [][]byte
	refs   []reference
	order  []int
}

// streamLength is how many requests a run's stream holds. A unique
// stream holds the serial replay's pairs, and the timed loops replay it
// once per fresh server; any other stream holds enough requests for the
// serial replay and the open loop, and the closed loop wraps around it.
func (w *workload) streamLength(openN int) int {
	if w.unique || w.serial > openN {
		return w.serial
	}
	return openN
}

// openCount is the number of open-loop requests in a phase of d.
func (w *workload) openCount(d time.Duration) int {
	n := int(w.rate * d.Seconds())
	if n < minOpenSamples {
		n = minOpenSamples
	}
	return n
}

// minOpenSamples keeps at least ten samples beyond the open loop's p99.
const minOpenSamples = 1000

// newStream generates the request order and the bodies of every
// distinct pair. The same seed always yields byte-identical bodies and
// order.
func (w *workload) newStream(seed int64, n int) *stream {
	r := rand.New(rand.NewSource(pairSeed(seed, w.name+"/order", 0)))
	pairs, order := w.build(r, seed, n)
	st := &stream{pairs: pairs, order: order, bodies: make([][]byte, len(pairs))}
	parallelFor(len(pairs), func(i int) {
		a, b := pairs[i].generate()
		st.bodies[i] = misam.AppendMatrixBinary(misam.AppendMatrixBinary(nil, a), b)
	})
	return st
}
