package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"misam"
	"misam/internal/sim"
)

// reference is a pair's exact answer, computed outside every timed
// window: the four-design simulation and the baseline comparison.
type reference struct {
	seconds [sim.NumDesigns]float64
	best    sim.DesignID
	cpuMs   float64
	gpuMs   float64
	trapMs  float64
}

// computeRefs fills st.refs from the request bodies.
func (st *stream) computeRefs() error {
	st.refs = make([]reference, len(st.bodies))
	errs := make([]error, len(st.bodies))
	parallelFor(len(st.bodies), func(i int) {
		a, b, err := decodePair(st.bodies[i])
		if err != nil {
			errs[i] = err
			return
		}
		res, err := misam.SimulateAllDesigns(a, b)
		if err != nil {
			errs[i] = err
			return
		}
		cmp := misam.CompareBaselines(a, b)
		ref := reference{
			best:   sim.BestDesign(res),
			cpuMs:  cmp.CPUSeconds * 1e3,
			gpuMs:  cmp.GPUSeconds * 1e3,
			trapMs: cmp.TrapezoidSeconds * 1e3,
		}
		for id := range res {
			ref.seconds[id] = res[id].Seconds
		}
		st.refs[i] = ref
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference for pair %d (%s): %w", i, st.pairs[i].fam.name, err)
		}
	}
	return nil
}

// decodePair decodes a two-blob request body into independent matrices.
func decodePair(body []byte) (a, b *misam.Matrix, err error) {
	va, rest, err := misam.ParseWireMatrix(body)
	if err != nil {
		return nil, nil, err
	}
	vb, _, err := misam.ParseWireMatrix(rest)
	if err != nil {
		return nil, nil, err
	}
	return va.DecodeCopy(), vb.DecodeCopy(), nil
}

// analyzeResponse is the subset of the server's JSON reply the checks
// read.
type analyzeResponse struct {
	Design      string  `json:"design"`
	Path        string  `json:"path"`
	SimulatedMs float64 `json:"simulated_ms"`
	CPUMs       float64 `json:"cpu_ms"`
	GPUMs       float64 `json:"gpu_ms"`
	TrapezoidMs float64 `json:"trapezoid_ms"`
}

// served is one checked answer: the design the system chose, or an
// error explaining why the answer counts as failed.
type served struct {
	design sim.DesignID
	err    error
}

// checkReport compares one answer against the pair's reference. A full
// path answer must carry the exact simulated latency of its design; every
// answer must carry the exact baseline comparison.
func checkReport(design string, path string, simulatedMs, cpuMs, gpuMs, trapMs float64, ref *reference) served {
	var id sim.DesignID
	found := false
	for _, d := range sim.AllDesigns {
		if d.String() == design {
			id, found = d, true
		}
	}
	if !found {
		return served{err: fmt.Errorf("unknown design %q", design)}
	}
	switch path {
	case misam.PathFull:
		if want := ref.seconds[id] * 1e3; simulatedMs != want {
			return served{err: fmt.Errorf("%s simulated_ms %v, reference %v", design, simulatedMs, want)}
		}
	case misam.PathFast:
		if simulatedMs != 0 {
			return served{err: fmt.Errorf("fast-path answer carries simulated_ms %v", simulatedMs)}
		}
	default:
		return served{err: fmt.Errorf("unknown path %q", path)}
	}
	if cpuMs != ref.cpuMs || gpuMs != ref.gpuMs || trapMs != ref.trapMs {
		return served{err: fmt.Errorf("baselines cpu/gpu/trapezoid %v/%v/%v ms, reference %v/%v/%v",
			cpuMs, gpuMs, trapMs, ref.cpuMs, ref.gpuMs, ref.trapMs)}
	}
	return served{design: id}
}

// checkBody decodes and checks one HTTP reply body.
func checkBody(status int, body []byte, ref *reference) served {
	if status != 200 {
		return served{err: fmt.Errorf("status %d: %s", status, truncate(body))}
	}
	var r analyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return served{err: fmt.Errorf("bad reply JSON: %w", err)}
	}
	return checkReport(r.Design, r.Path, r.SimulatedMs, r.CPUMs, r.GPUMs, r.TrapezoidMs, ref)
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// decisionQuality scores the served designs of one request sequence
// against the exact argmin; failed answers count as misses and are left
// out of the slowdown.
func decisionQuality(answers []served, pairs []int, refs []reference) (match, slowdownGeo float64) {
	var hits, n int
	var logSum float64
	for i, a := range answers {
		if a.err != nil {
			continue
		}
		ref := &refs[pairs[i]]
		if a.design == ref.best {
			hits++
		}
		logSum += math.Log(ref.seconds[a.design] / ref.seconds[ref.best])
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return float64(hits) / float64(len(answers)), math.Exp(logSum / float64(n))
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS workers.
func parallelFor(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				fn(j)
			}
		}()
	}
	wg.Wait()
}
