// Command perfbench is the repository's end-to-end benchmark. It drives
// the SCHEMATIC pipeline only through public entry points — the daemon's
// HTTP handler over a disk store and verify.Run — on three seeded
// workloads, checks every answer against an independent oracle, and
// prints one JSON result line.
//
//	perfbench -workload emulate-cold -seed 1 -seconds 25 -trace 0 -out .bench_build/perfbench
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the workload once untraced and once with spans around every call into
// a layer, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minSamples is the smallest latency sample an untraced run reports:
// at least ten samples then lie beyond the 90th percentile's rank.
const minSamples = 110

// A run performs its set-up at least minSetups times, and again while
// the set-ups so far took less than setupBudget, up to maxSetups;
// setup_s is the median. Cheap set-ups get more repeats.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = 3 * time.Second
)

// workload is one seeded traffic mix.
type workload interface {
	// setUp prepares everything that precedes the first timed job. It is
	// called several times per run; each call follows a tearDown. A
	// non-nil tracer records the set-up's calls into layers.
	setUp(tr *tracer) error
	// pass runs pass p and returns its timed window. Passes are whole:
	// every pass runs the same fixed job list (emulate-cold draws a new
	// input seed per request, but over the same job multiset).
	pass(p int, ph *phase) (time.Duration, error)
	// check compares the outputs of the phase's passes with the oracle.
	// It runs after the timed window closes.
	check(ph *phase) error
	// layers reports the per-layer metrics of a traced phase.
	layers(ph *phase) (map[string]float64, error)
	// passesRepeat reports whether every pass runs the same jobs, so
	// each pass's exact counts must equal pass 0's.
	passesRepeat() bool
	// summarize reports the phase's throughput and the latency samples
	// its percentiles are taken over, one per job, in job order.
	summarize(ph *phase) (jobsPerSec float64, lat []float64)
	// notes summarises the phase for the run log (percentile owners,
	// tier shares); it never feeds a metric.
	notes(ph *phase) []string
	tearDown()
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_mb_per_job", "MB"},
}

// perLayer lists the metrics of a traced run. A layer the workload never
// enters reports 0: no spans, no time, no work.
var perLayer = []struct{ name, unit string }{
	{"trace.collect_ms", "ms"},
	{"trace.collect_share", "ratio"},
	{"trace.mcycles_per_s", "Mcycle/s"},
	{"minic.compile_ms", "ms"},
	{"baselines.apply_ms", "ms"},
	{"baselines.checkpoints", "count"},
	{"dispatch.compile_ms", "ms"},
	{"emulator.run_ms", "ms"},
	{"emulator.steps", "count"},
	{"emulator.power_failures", "count"},
	{"emulator.saves", "count"},
	{"emulator.restores", "count"},
	{"server.hit_ratio", "ratio"},
	{"server.store_hit_ratio", "ratio"},
	{"server.request_ms.compile", "ms"},
	{"server.request_ms.emulate", "ms"},
	{"server.request_ms.validate", "ms"},
	{"server.request_ms.grid", "ms"},
	{"server.remainder_ms", "ms"},
	{"server.client_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"crashtest.prepare_ms", "ms"},
	{"verify.states_per_s", "1/s"},
	{"verify.edges_per_s", "1/s"},
	{"verify.dedup_ratio", "ratio"},
	{"verify.states", "count"},
	{"verify.edges", "count"},
	{"verify.dedup_hits", "count"},
	{"fail_ratio", "ratio"},
	{"perfbench.trace_overhead_jobs_per_s", "1/s"},
}

func newWorkload(name string, seed int64, dir string) (workload, error) {
	switch name {
	case "emulate-cold":
		return newCold(seed, dir), nil
	case "warm-mixed":
		return newWarm(seed, dir), nil
	case "verify-small":
		return newVerifySmall(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (emulate-cold, warm-mixed, verify-small)", name)
}

func main() {
	name := flag.String("workload", "", "workload: emulate-cold, warm-mixed or verify-small")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "minimum timed seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch state, counts and span files")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string) (*result, error) {
	scratch, err := os.MkdirTemp(mustDir(out), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	w, err := newWorkload(name, seed, scratch)
	if err != nil {
		return nil, err
	}

	var setupTimes []float64
	var setupTotal time.Duration
	for i := 0; i < minSetups || (setupTotal < setupBudget && i < maxSetups); i++ {
		if i > 0 {
			w.tearDown()
		}
		start := time.Now()
		if err := w.setUp(nil); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		setupTotal += d
		setupTimes = append(setupTimes, d.Seconds())
	}
	defer w.tearDown()

	res := &result{Metrics: map[string]metric{}}
	if !traced {
		ph, err := runPhase(w, nil, seconds, minSamples)
		if err != nil {
			return nil, err
		}
		logNotes(name, "untraced", w, ph)
		fillEndToEnd(res, w, ph, median(setupTimes))
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Correct = ph.failed == 0 && len(ph.problems) == 0
		if err := countsGate(out, name, seed, ph); err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		return res, nil
	}

	// Traced run: the same workload untraced, then again on fresh state
	// with spans, so the difference is the tracing overhead and the two
	// phases must agree on every exact count.
	un, err := runPhase(w, nil, seconds/2, 0)
	if err != nil {
		return nil, err
	}
	logNotes(name, "untraced", w, un)
	w.tearDown()
	tr := newTracer()
	if err := w.setUp(tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ph, err := runPhase(w, tr, seconds/2, 0)
	if err != nil {
		return nil, err
	}
	logNotes(name, "traced", w, ph)
	vals, err := w.layers(ph)
	if err != nil {
		return nil, err
	}
	vals["fail_ratio"] = float64(ph.failed) / float64(max(ph.attempted, 1))
	withSpans, _ := w.summarize(ph)
	without, _ := w.summarize(un)
	vals["perfbench.trace_overhead_jobs_per_s"] = withSpans - without
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	res.Attempted = un.attempted + ph.attempted
	res.Failed = un.failed + ph.failed
	res.Correct = res.Failed == 0 && len(un.problems) == 0 && len(ph.problems) == 0
	if err := sameCounts(un, ph); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: traced and untraced runs disagree:", err)
	}
	if err := countsGate(out, name, seed, ph); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	spans := filepath.Join(mustDir(filepath.Join(out, "spans")), fmt.Sprintf("%s-seed%d.ndjson", name, seed))
	if err := tr.write(spans, ph.extraSpanRecords); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", spans)
	return res, nil
}

// runPhase runs whole passes until at least seconds of timed work and
// minJobs jobs are done, then checks the outputs against the oracle.
func runPhase(w workload, tr *tracer, seconds float64, minJobs int) (*phase, error) {
	ph := &phase{tr: tr}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for p := 0; p == 0 || ph.wall.Seconds() < seconds || len(ph.lat) < minJobs; p++ {
		ph.counts = append(ph.counts, map[string]int64{})
		jobsBefore := len(ph.lat)
		d, err := w.pass(p, ph)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		ph.wall += d
		ph.passRates = append(ph.passRates, float64(len(ph.lat)-jobsBefore)/d.Seconds())
		ph.passes++
	}
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err := w.check(ph); err != nil {
		return nil, err
	}
	for p := 1; w.passesRepeat() && p < len(ph.counts); p++ {
		if err := diffCounts(ph.counts[0], ph.counts[p]); err != nil {
			ph.problem("pass %d counts differ from pass 0: %v", p, err)
		}
	}
	return ph, nil
}

func fillEndToEnd(res *result, w workload, ph *phase, setup float64) {
	jobsPerSec, samples := w.summarize(ph)
	lat := append([]float64(nil), samples...)
	sort.Float64s(lat)
	vals := map[string]float64{
		"setup_s":          setup,
		"jobs_per_s":       jobsPerSec,
		"latency_p50_ms":   quantile(lat, 0.50),
		"latency_p90_ms":   quantile(lat, 0.90),
		"alloc_mb_per_job": float64(ph.allocBytes) / float64(max(ph.attempted, 1)) / 1e6,
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs in %d passes over %.2fs timed; %d beyond p90\n",
		len(lat), ph.passes, ph.wall.Seconds(), len(lat)-rank(len(lat), 0.90))
	for _, m := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-18s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(os.Stderr, "  p50 falls on %s, p90 on %s\n", ph.owner(samples, 0.5), ph.owner(samples, 0.9))
}

func logNotes(name, label string, w workload, ph *phase) {
	jobsPerSec, _ := w.summarize(ph)
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d attempted, %d failed, %.4g jobs/s\n",
		name, label, ph.attempted, ph.failed, jobsPerSec)
	for _, n := range w.notes(ph) {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, p := range ph.problems {
		fmt.Fprintln(os.Stderr, "  FAIL: "+p)
	}
}

// sameCounts requires pass 0 of two phases to agree on every count.
func sameCounts(a, b *phase) error {
	return diffCounts(a.counts[0], b.counts[0])
}

func diffCounts(a, b map[string]int64) error {
	var bad []string
	for k, v := range a {
		if b[k] != v {
			bad = append(bad, fmt.Sprintf("%s %d != %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s missing (%d)", k, v))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// countsGate pins pass 0's exact counts per (workload, seed) across runs
// of one build: the first run records them, every later run must match.
func countsGate(out, name string, seed int64, ph *phase) error {
	path := filepath.Join(mustDir(filepath.Join(out, "counts")), fmt.Sprintf("%s-seed%d.json", name, seed))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]int64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("counts file %s: %w", path, err)
		}
		if err := diffCounts(want, ph.counts[0]); err != nil {
			return fmt.Errorf("exact counts differ from an earlier run of this seed: %v", err)
		}
		return nil
	}
	b, _ := json.Marshal(ph.counts[0])
	return os.WriteFile(path, b, 0o644)
}

func mustDir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}
