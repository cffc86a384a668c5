package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"schematic/internal/bench"
	"schematic/internal/loadtest"
	"schematic/internal/server"
)

// warm-mixed sizing. The request kinds follow loadtest.DefaultMix, the
// repository's model of paper-reproduction traffic (compile 2 : emulate
// 12 : validate 1 : grid 1), in the hot keys and the cold keys alike:
// each unit of weight is hotUnit hot keys and coldUnit cold keys. The
// daemon's result cache holds warmCacheCap entries (a deployment
// setting). The 32 hot keys take 34 of them (a grid touches two cells)
// and each recurs within 40 requests, so a hot key is never more than
// about 50 entries deep; the 96 cold keys (108 entries) cycle through
// more than the 30 entries left, so each cold request misses the memory
// cache and is answered by the disk store. Exactly one request in
// blockLen is cold.
const (
	warmCacheCap = 64
	hotUnit      = 2
	coldUnit     = 6
	hotPer       = 4 // hot requests per cold request
	blockLen     = hotPer + 1
)

var warmPrograms = []string{"crc", "randmath"}

// warmProfileRuns keeps the warm-up cheap: the timed requests are all
// answered from the cache tiers, so the profile only shapes the set-up.
const warmProfileRuns = 10

// warmKey is one request of the warm-mixed key set.
type warmKey struct {
	kind   string // compile, emulate, validate or grid
	bench  string
	techs  []string
	seed   int64
	body   []byte
	digest string // "" for grid: grids are reassembled, never cached
	label  string
}

// lookups is the number of result-cache lookups the key makes: one per
// grid cell, else one.
func (k *warmKey) lookups() int64 {
	if k.kind == "grid" {
		return int64(len(k.techs))
	}
	return 1
}

// warm is the warm-mixed workload: a closed loop over a key set whose
// answers the set-up computed, served from the memory cache (hot keys)
// and the disk store (cold keys).
type warm struct {
	seed    int64
	dir     string
	setupN  int
	keys    []*warmKey
	seq     []*warmKey        // one pass
	want    map[string][]byte // digest → the body the set-up received
	gridOut map[string][]byte // grid cell digest → cell result JSON
	d       *daemon
	delta   []cacheDelta // per pass

	coldLookups int64 // cache lookups of one pass's cold requests
}

func newWarm(seed int64, dir string) *warm { return &warm{seed: seed, dir: dir} }

func (w *warm) passesRepeat() bool { return true }

func (w *warm) summarize(ph *phase) (float64, []float64) { return ph.medianPass() }

// buildKeys draws the key set and one pass's request order from the
// seed.
func (w *warm) buildKeys() {
	r := rand.New(rand.NewSource(w.seed))
	offset := r.Int63n(1<<40) + 1
	var techs []string
	for _, t := range bench.Techniques() {
		techs = append(techs, strings.ToLower(t.Name()))
	}
	// Programs and techniques rotate through each kind's keys, so every
	// seed draws the same mix of payloads; the seed picks input seeds and
	// the order.
	n := int64(0)
	mk := func(kind string, i int) *warmKey {
		n++
		k := &warmKey{kind: kind, bench: warmPrograms[i%len(warmPrograms)], seed: offset + n}
		t := i / len(warmPrograms)
		var err error
		if kind == "grid" {
			k.techs = []string{techs[t%len(techs)], techs[(t+1)%len(techs)]}
			k.body, err = json.Marshal(server.GridRequest{
				Benches: []string{k.bench}, Techniques: k.techs, Options: server.Options{Seed: k.seed, ProfileRuns: warmProfileRuns},
			})
		} else {
			k.techs = []string{techs[t%len(techs)]}
			req := server.Request{Bench: k.bench, Options: server.Options{Technique: k.techs[0], Seed: k.seed, ProfileRuns: warmProfileRuns}}
			k.body, err = json.Marshal(req)
			if err == nil {
				k.digest, err = server.DigestOf(kind, req)
			}
		}
		if err != nil {
			panic(err) // the request types are plain structs
		}
		k.label = kind + " " + k.bench + "/" + strings.Join(k.techs, "+")
		return k
	}
	mix := loadtest.DefaultMix
	weights := []struct {
		kind   string
		weight int
	}{{"compile", mix.Compile}, {"emulate", mix.Emulate}, {"validate", mix.Validate}, {"grid", mix.Grid}}
	var hot, cold []*warmKey
	w.coldLookups = 0
	for _, g := range weights {
		for i := 0; i < g.weight*hotUnit; i++ {
			hot = append(hot, mk(g.kind, i))
		}
		for i := 0; i < g.weight*coldUnit; i++ {
			k := mk(g.kind, i)
			cold = append(cold, k)
			w.coldLookups += k.lookups()
		}
	}
	r.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	r.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	// Cold keys first, so the set-up leaves the hot keys most recent.
	w.keys = append(append([]*warmKey(nil), cold...), hot...)
	// One pass visits every cold key once and every hot key
	// len(cold)*hotPer/len(hot) times.
	w.seq = nil
	for c := range cold {
		for h := 0; h < hotPer; h++ {
			w.seq = append(w.seq, hot[(c*hotPer+h)%len(hot)])
		}
		w.seq = append(w.seq, cold[c])
	}
}

func (w *warm) setUp(tr *tracer) error {
	w.buildKeys()
	w.setupN++
	var err error
	w.d, err = startDaemon(filepath.Join(w.dir, fmt.Sprintf("warm-store-%d", w.setupN)), warmCacheCap)
	if err != nil {
		return err
	}
	w.want = map[string][]byte{}
	w.gridOut = map[string][]byte{}
	w.delta = nil
	// Warm-up: compute every answer once, the cold keys before the hot
	// ones, then check each answer against the oracle.
	outs := make([][]byte, len(w.keys))
	errs := make([]error, len(w.keys))
	nCold := len(w.seq) / blockLen
	for _, span := range [][2]int{{0, nCold}, {nCold, len(w.keys)}} {
		closedLoop(span[1]-span[0], func(i int) {
			k := w.keys[span[0]+i]
			code, out, err := w.d.post("/v1/"+k.kind, k.body, 0)
			if err == nil && code != 200 {
				err = fmt.Errorf("HTTP %d: %s", code, out)
			}
			outs[span[0]+i], errs[span[0]+i] = out, err
		})
	}
	for i, k := range w.keys {
		if errs[i] != nil {
			return fmt.Errorf("warm-up %s: %w", k.label, errs[i])
		}
		if err := w.remember(k, outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// remember records a warm-up answer and checks it against the oracle.
func (w *warm) remember(k *warmKey, out []byte) error {
	src := func(name string) string {
		b, _ := bench.ByName(name)
		return b.Source
	}
	checkEmulate := func(seed int64, r *server.EmulateResponse) error {
		want, err := reference(k.bench, src(k.bench), seed)
		if err != nil {
			return err
		}
		if !r.Completed || !slices.Equal(want, r.Output) {
			return fmt.Errorf("warm-up %s/%v seed %d: output %v (%s), interpreter says %v", k.bench, k.techs, seed, r.Output, r.Verdict, want)
		}
		return nil
	}
	switch k.kind {
	case "grid":
		var g server.GridResponse
		if err := json.Unmarshal(out, &g); err != nil {
			return err
		}
		if g.CellErrors != 0 || len(g.Cells) != len(k.techs) {
			return fmt.Errorf("warm-up grid %s: %d cells, %d errors", k.bench, len(g.Cells), g.CellErrors)
		}
		for _, c := range g.Cells {
			if err := checkEmulate(k.seed, c.Result); err != nil {
				return err
			}
			b, _ := json.Marshal(c.Result)
			w.gridOut[c.Digest] = b
		}
	case "emulate":
		var r server.EmulateResponse
		if err := json.Unmarshal(out, &r); err != nil {
			return err
		}
		if err := checkEmulate(k.seed, &r); err != nil {
			return err
		}
	case "validate":
		var r server.ValidateResponse
		if err := json.Unmarshal(out, &r); err != nil {
			return err
		}
		if !r.OK {
			return fmt.Errorf("warm-up validate %s/%v: stage %s: %s", k.bench, k.techs, r.Stage, r.Detail)
		}
	}
	if k.digest != "" {
		w.want[k.digest] = out
	}
	return nil
}

func (w *warm) pass(p int, ph *phase) (time.Duration, error) {
	before, err := w.d.counters()
	if err != nil {
		return 0, err
	}
	wall := closedLoop(len(w.seq), func(i int) {
		k := w.seq[i]
		reqID := int64(p*len(w.seq) + i + 1)
		start := time.Now()
		code, out, err := w.d.post("/v1/"+k.kind, k.body, 0)
		lat := time.Since(start)
		ph.tr.record("server.request."+k.kind, 0, reqID, start, lat)
		switch {
		case err != nil:
			ph.job(k.label, lat, false, fmt.Sprintf("%s: transport: %v", k.label, err))
		case code != 200 || !w.same(k, out):
			ph.job(k.label, lat, false, fmt.Sprintf("%s: HTTP %d, body differs from the set-up's answer", k.label, code))
		default:
			ph.job(k.label, lat, true, "")
		}
	})
	after, err := w.d.counters()
	if err != nil {
		return 0, err
	}
	dc := deltaOf(before, after)
	w.delta = append(w.delta, dc)
	ph.add(p, "server.cache_misses", dc.misses)
	ph.add(p, "server.store_hits", dc.storeHits)
	ph.add(p, "server.store_puts", dc.storePuts)
	// Every cold lookup, and nothing else, must be answered by the disk
	// store; a hot key evicted from memory would show here.
	if n := w.coldLookups; dc.misses != n || dc.storeHits != n || dc.coalesced != 0 || dc.storePuts != 0 {
		ph.problem("pass %d: expected %d store-answered misses, /metrics says %+v", p, n, dc)
	}
	return wall, nil
}

// same reports whether a timed answer is byte-identical to the set-up's
// answer for the same digest (for a grid: every cell's result).
func (w *warm) same(k *warmKey, out []byte) bool {
	if k.kind != "grid" {
		return bytes.Equal(out, w.want[k.digest])
	}
	var g server.GridResponse
	if err := json.Unmarshal(out, &g); err != nil || g.CellsComputed != 0 || g.CellErrors != 0 || len(g.Cells) != len(k.techs) {
		return false
	}
	for _, c := range g.Cells {
		b, _ := json.Marshal(c.Result)
		if !bytes.Equal(b, w.gridOut[c.Digest]) {
			return false
		}
	}
	return true
}

// check has nothing left to do: every timed answer was compared byte
// for byte with a set-up answer the oracle had already accepted.
func (w *warm) check(ph *phase) error { return nil }

// total sums the per-pass cache deltas.
func (w *warm) total() cacheDelta {
	var sum cacheDelta
	for _, d := range w.delta {
		sum.hits += d.hits
		sum.misses += d.misses
		sum.coalesced += d.coalesced
		sum.storeHits += d.storeHits
	}
	return sum
}

func (w *warm) layers(ph *phase) (map[string]float64, error) {
	tr := ph.tr
	v := map[string]float64{}
	v["server.hit_ratio"], v["server.store_hit_ratio"] = w.total().shares()
	for _, kind := range []string{"compile", "emulate", "validate", "grid"} {
		v["server.request_ms."+kind] = median(tr.durationsMS("server.request." + kind))
	}
	var err error
	v["store.put_ms"], v["store.get_ms"], err = storeTimes(w.d.st, filepath.Join(w.dir, "warm-store-copy"), tr)
	return v, err
}

func (w *warm) notes(ph *phase) []string {
	sum := w.total()
	fromStore := ph.passes * len(w.seq) / blockLen
	return []string{fmt.Sprintf("%d requests: %d cache lookups, %d memory hits, %d store hits (%.1f%% of requests answered by the store)",
		len(ph.lat), sum.lookups(), sum.hits, sum.storeHits, 100*float64(fromStore)/float64(max(len(ph.lat), 1)))}
}

func (w *warm) tearDown() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}
