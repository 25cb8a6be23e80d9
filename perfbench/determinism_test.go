package main

import (
	"bytes"
	"testing"

	"misam"
)

// TestStreamsAreDeterministic pins the seed contract: the same seed gives
// byte-identical request streams, and another seed gives another stream.
func TestStreamsAreDeterministic(t *testing.T) {
	const n = 48
	for _, w := range workloads {
		a, b, c := w.newStream(7, n), w.newStream(7, n), w.newStream(8, n)
		if !sameStream(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if sameStream(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func sameStream(a, b *stream) bool {
	if len(a.order) != len(b.order) || len(a.bodies) != len(b.bodies) {
		return false
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			return false
		}
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			return false
		}
	}
	return true
}

// TestSerialReplayIsDeterministic replays a short stream twice, each on a
// fresh server, and expects identical decision-quality metrics, all
// answers correct and all counters reconciled.
func TestSerialReplayIsDeterministic(t *testing.T) {
	fw, err := misam.Train(misam.TrainOptions{CorpusSize: 40, LatencyCorpusSize: 40, MaxDim: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := modelBytes(fw)
	if err != nil {
		t.Fatal(err)
	}
	conns := newConns(1)
	defer closeConns(conns)
	const n = 40
	for _, w := range workloads {
		st := w.newStream(5, n)
		if err := st.computeRefs(); err != nil {
			t.Fatal(err)
		}
		var got [2]quality
		for k := range got {
			q, err := replay(model, w, st, n, conns[0])
			if err != nil {
				t.Fatal(err)
			}
			if q.phase.Failed != 0 {
				t.Errorf("%s: %d of %d answers failed, first: %s", w.name, q.phase.Failed, n, q.phase.FirstError)
			}
			if q.reconcileErr != nil {
				t.Errorf("%s: %v", w.name, q.reconcileErr)
			}
			got[k] = q
		}
		a, b := got[0], got[1]
		if a.OracleMatch != b.OracleMatch || a.SlowdownGeomean != b.SlowdownGeomean || a.ReconfigsPer1k != b.ReconfigsPer1k {
			t.Errorf("%s: replays disagree: %+v vs %+v", w.name, a, b)
		}
	}
}
