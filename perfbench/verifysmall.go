package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"schematic/internal/bench"
	"schematic/internal/crashtest"
	"schematic/internal/verify"
)

// verifyPrograms are the programs the bounded model checker proves at
// its default bounds in about a second per pass. bitcount is left out:
// bitcount/Ratchet reached no verdict within ten minutes.
var verifyPrograms = []string{"crc", "randmath"}

// verifySmall is the verify-small workload: verify.Run at default bounds
// on every (program, technique) case, one case at a time.
type verifySmall struct {
	seed  int64
	cases []crashtest.Case
}

func newVerifySmall(seed int64) *verifySmall { return &verifySmall{seed: seed} }

func (w *verifySmall) passesRepeat() bool { return true }

func (w *verifySmall) summarize(ph *phase) (float64, []float64) { return ph.fastestRepeats() }

// setUp builds the cases and prepares each once, which checks that the
// verifier will judge it rather than skip it.
func (w *verifySmall) setUp(tr *tracer) error {
	r := rand.New(rand.NewSource(w.seed))
	w.cases = nil
	for _, name := range verifyPrograms {
		b, err := bench.ByName(name)
		if err != nil {
			return err
		}
		seed := r.Int63n(1<<40) + 1
		for _, t := range bench.Techniques() {
			w.cases = append(w.cases, crashtest.Case{Name: name, Source: b.Source, Technique: t.Name(), InputSeed: seed})
		}
	}
	for i, cs := range w.cases {
		id := tr.begin("crashtest.prepare", 0, int64(i+1))
		_, err := crashtest.Prepare(cs, crashtest.Options{})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cs.Name, cs.Technique, err)
		}
	}
	return nil
}

func (w *verifySmall) tearDown() { w.cases = nil }

func (w *verifySmall) pass(p int, ph *phase) (time.Duration, error) {
	start := time.Now()
	for i, cs := range w.cases {
		reqID := int64(p*len(w.cases) + i + 1)
		// Each case starts from a collected heap, so a small case's
		// latency does not depend on the garbage the case before it
		// left. The collection counts in the pass's wall time.
		runtime.GC()
		t0 := time.Now()
		rep, err := verify.Run(context.Background(), cs, verify.Options{})
		d := time.Since(t0)
		ph.tr.record("verify.run", 0, reqID, t0, d)
		why := ""
		switch {
		case err != nil:
			why = fmt.Sprintf("%s/%s: %v", cs.Name, cs.Technique, err)
		case rep.Verdict != verify.Verified:
			why = fmt.Sprintf("%s/%s: verdict %s (bound %q), want verified", cs.Name, cs.Technique, rep.Verdict, rep.Bound)
		}
		ph.job(cs.Name+"/"+cs.Technique, d, why == "", why)
		if rep != nil {
			ph.add(p, "verify.states", int64(rep.States))
			ph.add(p, "verify.edges", rep.Edges)
			ph.add(p, "verify.dedup_hits", rep.DedupHits)
		}
	}
	return time.Since(start), nil
}

// check has nothing left to do: every verdict was checked as it came.
func (w *verifySmall) check(ph *phase) error { return nil }

func (w *verifySmall) layers(ph *phase) (map[string]float64, error) {
	tr := ph.tr
	var states, edges, dedup int64
	for _, c := range ph.counts {
		states += c["verify.states"]
		edges += c["verify.edges"]
		dedup += c["verify.dedup_hits"]
	}
	secs := tr.total("verify.run").Seconds()
	c := ph.counts[0]
	return map[string]float64{
		"crashtest.prepare_ms": median(tr.durationsMS("crashtest.prepare")),
		"verify.states_per_s":  float64(states) / secs,
		"verify.edges_per_s":   float64(edges) / secs,
		"verify.dedup_ratio":   float64(dedup) / float64(max(edges, 1)),
		"verify.states":        float64(c["verify.states"]),
		"verify.edges":         float64(c["verify.edges"]),
		"verify.dedup_hits":    float64(c["verify.dedup_hits"]),
	}, nil
}

func (w *verifySmall) notes(ph *phase) []string {
	c := ph.counts[0]
	out := []string{fmt.Sprintf("%d cases per pass: %d states, %d edges, %d dedup hits",
		len(w.cases), c["verify.states"], c["verify.edges"], c["verify.dedup_hits"])}
	_, lat := ph.fastestRepeats()
	for i, cs := range w.cases {
		out = append(out, fmt.Sprintf("%-20s fastest %8.2f ms", cs.Name+"/"+cs.Technique, lat[i]))
	}
	return out
}
