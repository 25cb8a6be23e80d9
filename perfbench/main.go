// Command perfbench is the repository's serving benchmark. It trains a
// model, serves it through the real internal/server handler on a
// loopback listener, drives one named traffic mix through it, checks
// every answer against an exact reference, and prints the metrics named
// in BENCHMARK.json. See README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-wire --seed 1 --seconds 12 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"misam"
)

// trainOptions is the fixed model every run serves. Its seed does not
// depend on the workload seed, so every run serves the same model.
var trainOptions = misam.TrainOptions{
	CorpusSize:        120,
	LatencyCorpusSize: 160,
	MaxDim:            256,
	Seed:              1,
}

// setups is how many times a run trains and starts the server; setup_s
// is their median.
const setups = 3

// slices is how many open-loop and closed-loop slices a run alternates.
// Both loops then sample the host across the whole run, whose speed
// drifts over seconds, and each timing metric is the median over its
// slices.
const slices = 6

// outDir holds run records and span files, inside the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full run record written next to the build output.
type record struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	SetupS     []float64 `json:"setup_s,omitempty"`
	// Slices holds each timing metric's value in every closed slice and
	// every latency window of the open slices.
	Slices   map[string][]float64 `json:"slices,omitempty"`
	Phases   []phase              `json:"phases"`
	Problems []string             `json:"problems,omitempty"`
	Metrics  map[string]metric    `json:"metrics"`
}

// run accumulates one run's phases, failures and metrics.
type run struct {
	w       *workload
	seed    int64
	seconds int
	rec     record
}

func (r *run) addPhase(p phase) { r.rec.Phases = append(r.rec.Phases, p) }

// problem records a failed check; any problem makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	r.rec.Problems = append(r.rec.Problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64, unit string) { r.rec.Metrics[name] = metric{v, unit} }

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "traffic mix: hot-wire, cold-sim or shift-churn")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", 30, "measured seconds: three quarters open loop, one quarter closed loop")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench:", err, "(need --workload, --seconds >= 1, --trace 0|1)")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &run{w: w, seed: *seed, seconds: *seconds, rec: record{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace == 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Metrics:    map[string]metric{},
	}}
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.report(os.Stdout)
}

// endToEnd measures the user-visible metrics: set-up, a serial replay
// for decision quality, then alternating slices of an open loop for
// latency and a closed loop for throughput.
func (r *run) endToEnd() error {
	w := r.w
	openD, closedD := phaseDurations(r.seconds)
	openN := w.openCount(openD / slices)
	conns := newConns(runtime.GOMAXPROCS(0))
	defer closeConns(conns)

	// Set-up, several times; the last server stays up for the first open
	// slice.
	var openT *target
	for k := 0; k < setups; k++ {
		t, secs, err := setUp(w, conns[0])
		if err != nil {
			return err
		}
		r.rec.SetupS = append(r.rec.SetupS, secs)
		if openT != nil {
			openT.stop()
		}
		openT = t
	}
	r.set("setup_s", median(r.rec.SetupS), "s")
	model, err := modelBytes(openT.fw)
	if err != nil {
		openT.stop()
		return err
	}
	// The stream is generated after set-up, so set-up runs on the same
	// small heap in every workload.
	st, err := buildStream(w, r.seed, w.streamLength(slices*openN))
	if err != nil {
		openT.stop()
		return err
	}

	// Serial replay on fresh state: decision quality and reconfigurations.
	q, err := replay(model, w, st, w.serial, conns[0])
	if err != nil {
		openT.stop()
		return err
	}
	r.addPhase(q.phase)
	if q.reconcileErr != nil {
		r.problem("serial: counters do not reconcile: %v", q.reconcileErr)
	}
	r.set("oracle_match", q.OracleMatch, "ratio")
	r.set("oracle_slowdown_geomean", q.SlowdownGeomean, "ratio")
	r.set("reconfigs_per_1k", q.ReconfigsPer1k, "1/1k")

	// Open and closed slices, each on fresh state except the first open
	// slice, which runs on the set-up server. Every open slice sends its
	// own stretch of the stream, so a run's latency covers more of the
	// seed's traffic than one stretch replayed six times, and its
	// latencies are cut into windows of at least minOpenSamples requests.
	// The latency metrics are medians over all windows of the run, the
	// throughput a median over the closed slices. The closed loop has one
	// client: on a shared 2-vCPU host, two clients' throughput swung by a
	// quarter between runs of the same seed, while one client's moved by
	// about 6 %.
	r.rec.Slices = map[string][]float64{}
	first := openT
	for k := 1; k <= slices; k++ {
		open, _, _, err := r.openPhase(fmt.Sprintf("open-%d", k), first, model, st, (k-1)*openN, openN, conns)
		first = nil
		if err != nil {
			return err
		}
		for _, win := range latencyWindows(open.latency) {
			r.rec.Slices["latency_p50_ms"] = append(r.rec.Slices["latency_p50_ms"], ms(percentile(win, 0.50)))
			r.rec.Slices["latency_p99_ms"] = append(r.rec.Slices["latency_p99_ms"], ms(percentile(win, 0.99)))
		}
		closed, err := r.closedPhase(fmt.Sprintf("closed-%d", k), model, st, closedD/slices, conns[:1])
		if err != nil {
			return err
		}
		rps := float64(newPhase("", closed.answers, 0).Succeeded) / closed.elapsed.Seconds()
		r.rec.Slices["throughput_rps"] = append(r.rec.Slices["throughput_rps"], rps)
	}
	r.set("latency_p50_ms", median(r.rec.Slices["latency_p50_ms"]), "ms")
	r.set("latency_p99_ms", median(r.rec.Slices["latency_p99_ms"]), "ms")
	r.set("throughput_rps", median(r.rec.Slices["throughput_rps"]), "1/s")

	attempted, failed := r.counts()
	r.set("success_ratio", float64(attempted-failed)/float64(attempted), "ratio")
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB")
	return nil
}

// phaseDurations splits the measured seconds between the open loop,
// which gets three quarters so every open slice holds more than a
// thousand requests, and the closed loop.
func phaseDurations(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total * 3 / 4, total / 4
}

// quality is the serial replay's outcome.
type quality struct {
	OracleMatch     float64
	SlowdownGeomean float64
	ReconfigsPer1k  float64
	phase           phase
	reconcileErr    error
}

// replay sends the first n requests of the stream, in order, on one
// connection to a server on a fresh clone of the model, and scores the
// served designs against the exact references. It is deterministic: the
// same model and stream give the same quality.
func replay(model []byte, w *workload, st *stream, n int, c *conn) (quality, error) {
	t, err := cloneTarget(model, w)
	if err != nil {
		return quality{}, err
	}
	answers, _, el := serial(t, st, n, c)
	var q quality
	q.phase = newPhase("serial", answers, el)
	q.OracleMatch, q.SlowdownGeomean = decisionQuality(answers, st.order[:n], st.refs)
	q.ReconfigsPer1k = 1000 * float64(t.reconfigs()) / float64(n)
	_, q.reconcileErr = t.reconcile()
	t.stop()
	return q, nil
}

// counts totals the analyze requests of every phase.
func (r *run) counts() (attempted, failed int) {
	for _, p := range r.rec.Phases {
		attempted += p.Sent
		failed += p.Failed
	}
	return attempted, failed
}

// buildStream generates the run's requests and their references.
func buildStream(w *workload, seed int64, n int) (*stream, error) {
	st := w.newStream(seed, n)
	if err := st.computeRefs(); err != nil {
		return nil, err
	}
	return st, nil
}

// setUp trains the model, builds the server and waits for its first
// answer, returning the elapsed wall time.
func setUp(w *workload, c *conn) (*target, float64, error) {
	runtime.GC()
	t0 := time.Now()
	fw, err := misam.Train(trainOptions)
	if err != nil {
		return nil, 0, fmt.Errorf("train: %w", err)
	}
	t, err := startTarget(fw, w.deployment)
	if err != nil {
		return nil, 0, err
	}
	if err := c.healthy(t); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(t0).Seconds(), nil
}

func modelBytes(fw *misam.Framework) ([]byte, error) {
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cloneFramework restores a fresh framework from the trained model.
func cloneFramework(model []byte) (*misam.Framework, error) {
	return misam.Load(bytes.NewReader(model))
}

// cloneTarget starts a server on a fresh clone of the trained framework.
func cloneTarget(model []byte, w *workload) (*target, error) {
	fw, err := cloneFramework(model)
	if err != nil {
		return nil, err
	}
	return startTarget(fw, w.deployment)
}

// report prints the run record, every metric with its unit, and the
// result line, and writes the record under outDir.
func (r *run) report(out io.Writer) int {
	attempted, failed := r.counts()
	res := result{
		Correct:   failed == 0 && len(r.rec.Problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.rec.Metrics,
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d NumCPU=%d %s commit=%s\n",
		r.rec.Workload, r.rec.Seed, r.rec.Seconds, r.rec.Trace, r.rec.GOMAXPROCS, r.rec.NumCPU, r.rec.GoVersion, r.rec.Commit)
	if len(r.rec.SetupS) > 0 {
		fmt.Fprintf(out, "  setups: %v s\n", r.rec.SetupS)
	}
	for _, p := range r.rec.Phases {
		fmt.Fprintf(out, "  phase %-12s sent=%d succeeded=%d failed=%d seconds=%.3f lag_p99_ms=%.3f %s\n",
			p.Name, p.Sent, p.Succeeded, p.Failed, p.Seconds, p.LagP99Ms, p.FirstError)
	}
	for _, pr := range r.rec.Problems {
		fmt.Fprintln(out, "  PROBLEM:", pr)
	}
	names := make([]string, 0, len(r.rec.Metrics))
	for n := range r.rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.rec.Metrics[n]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if data, err := json.MarshalIndent(r.rec, "", "  "); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%v.json", r.rec.Workload, r.rec.Seed, r.rec.Trace))
		if err := writeFile(path, data); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// commit reports the source revision the binary was built from, when
// the build saw a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
