package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"schematic/internal/baselines"
	"schematic/internal/bench"
	"schematic/internal/crashtest"
	"schematic/internal/emulator"
	"schematic/internal/emulator/dispatch"
	"schematic/internal/energy"
	"schematic/internal/ir"
	"schematic/internal/minic"
	"schematic/internal/server"
	"schematic/internal/trace"
)

// Daemon defaults that a default emulate request resolves to; the
// traced mirror replays the pipeline with exactly these.
const (
	defaultProfileRuns = 50
	defaultTBPF        = 10_000
	defaultVMSize      = 2048
)

// pair is one (program, technique) cell of Table I.
type pair struct {
	bench string
	tech  baselines.Technique
}

// apiName is the technique's spelling on the HTTP API.
func (p pair) apiName() string { return strings.ToLower(p.tech.Name()) }

// coldReq is one request of the emulate-cold sequence.
type coldReq struct {
	pair
	seed int64 // input and profile seed: fresh for every request
}

// coldResult is the daemon's answer to one request.
type coldResult struct {
	req     coldReq
	start   time.Time
	lat     time.Duration
	handler interval // the handler's time on this request
	code    int
	resp    *server.EmulateResponse
}

// client returns the part of the request's latency spent outside the
// daemon's handler: the HTTP client, the loopback connection and the
// wait for a CPU on either side.
func (r coldResult) client() time.Duration { return r.lat - r.handler.end.Sub(r.handler.start) }

// A request's client-side time may be at most clientSlack plus
// maxClientShare of its latency. The handler runs the whole pipeline, so
// the rest is transport: a median of about 0.3 ms, 1-3 ms on a
// connection's first request, which dials it, and up to about 20 ms when
// the client goroutine waits for a CPU that the other request's profile
// and the collector hold. More than the bound means the handler's time
// was not taken on this request.
const (
	maxClientShare = 0.10
	clientSlack    = 50 * time.Millisecond
)

// clientBound is the largest client-side time a request of latency lat
// may have.
func clientBound(lat time.Duration) time.Duration {
	return clientSlack + time.Duration(maxClientShare*float64(lat))
}

// cold is the emulate-cold workload: a closed loop of default-option
// POST /v1/emulate requests, each one a miss in every cache tier.
type cold struct {
	seed    int64
	dir     string
	setupN  int
	sources map[string]string
	pairs   []pair
	offset  int64 // seed offset: keeps input seeds distinct across passes

	d       *daemon
	results [][]coldResult    // per pass
	refs    map[int64][]int64 // interpreter output by input seed
}

func newCold(seed int64, dir string) *cold { return &cold{seed: seed, dir: dir} }

func (w *cold) passesRepeat() bool { return false }

func (w *cold) summarize(ph *phase) (float64, []float64) { return ph.littlesLaw() }

// supportedPairs compiles every bundled program and keeps the
// (program, technique) pairs that Table I supports at the daemon's
// default vm_size: unsupported pairs only fail after a full profile.
func supportedPairs() (map[string]string, []pair, error) {
	all, err := bench.All()
	if err != nil {
		return nil, nil, err
	}
	sources := map[string]string{}
	var pairs []pair
	for _, b := range all {
		m, err := minic.Compile(b.Name, b.Source)
		if err != nil {
			return nil, nil, err
		}
		sources[b.Name] = b.Source
		for _, t := range bench.Techniques() {
			if t.SupportsVM(m, defaultVMSize) {
				pairs = append(pairs, pair{bench: b.Name, tech: t})
			}
		}
	}
	return sources, pairs, nil
}

func (w *cold) setUp(tr *tracer) error {
	sources, pairs, err := supportedPairs()
	if err != nil {
		return err
	}
	w.sources, w.pairs = sources, pairs
	w.offset = rand.New(rand.NewSource(w.seed)).Int63n(1 << 40)
	// Reference outputs for the passes an untraced run always makes;
	// check computes any later pass's after the timed window.
	w.refs = map[int64][]int64{}
	for p := 0; p*len(pairs) < minSamples; p++ {
		for _, q := range w.sequence(p) {
			if w.refs[q.seed], err = reference(q.bench, sources[q.bench], q.seed); err != nil {
				return fmt.Errorf("reference %s seed %d: %w", q.bench, q.seed, err)
			}
		}
	}
	w.setupN++
	w.d, err = startDaemon(filepath.Join(w.dir, fmt.Sprintf("cold-store-%d", w.setupN)), 0)
	w.results = nil
	return err
}

func (w *cold) tearDown() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// sequence is pass p's request list: a seeded permutation of every
// supported pair, so each pass has the same cost multiset and every
// named percentile falls on the same program band, with an input seed
// no other request of the run uses.
func (w *cold) sequence(p int) []coldReq {
	r := rand.New(rand.NewSource(w.seed*7919 + int64(p)))
	seq := make([]coldReq, len(w.pairs))
	for i, j := range r.Perm(len(w.pairs)) {
		seq[i] = coldReq{pair: w.pairs[j], seed: w.offset + int64(p*len(w.pairs)+i) + 1}
	}
	return seq
}

func emulateBody(bench, tech string, seed int64) []byte {
	b, _ := json.Marshal(server.Request{Bench: bench, Options: server.Options{Technique: tech, Seed: seed}})
	return b
}

func (w *cold) pass(p int, ph *phase) (time.Duration, error) {
	seq := w.sequence(p)
	before, err := w.d.counters()
	if err != nil {
		return 0, err
	}
	res := make([]coldResult, len(seq))
	wall := closedLoop(len(seq), func(i int) {
		q := seq[i]
		body := emulateBody(q.bench, q.apiName(), q.seed)
		reqID := int64(p*len(seq) + i + 1)
		start := time.Now()
		code, out, err := w.d.post("/v1/emulate", body, reqID)
		lat := time.Since(start)
		res[i] = coldResult{req: q, start: start, lat: lat, code: code}
		why := ""
		switch {
		case err != nil:
			why = fmt.Sprintf("%s/%s: transport: %v", q.bench, q.apiName(), err)
		case code/100 != 2:
			why = fmt.Sprintf("%s/%s: HTTP %d: %s", q.bench, q.apiName(), code, strings.TrimSpace(string(out)))
		default:
			var r server.EmulateResponse
			if err := json.Unmarshal(out, &r); err != nil {
				why = fmt.Sprintf("%s/%s: bad body: %v", q.bench, q.apiName(), err)
			} else if !r.Completed {
				why = fmt.Sprintf("%s/%s: verdict %s", q.bench, q.apiName(), r.Verdict)
			} else {
				res[i].resp = &r
			}
		}
		ph.job(q.bench+"/"+q.apiName(), lat, why == "", why)
	})
	after, err := w.d.counters()
	if err != nil {
		return 0, err
	}
	// The handler's interval on each request must lie inside the
	// client's, and leave the client at most clientBound of it.
	for i := range res {
		r := &res[i]
		reqID := int64(p*len(seq) + i + 1)
		iv, ok := w.d.handlerTime(reqID)
		r.handler = iv
		end := r.start.Add(r.lat)
		switch {
		case !ok:
			ph.problem("request %d (%s/%s): the handler recorded no time", reqID, r.req.bench, r.req.apiName())
		case iv.start.Before(r.start) || iv.end.After(end) || r.client() > clientBound(r.lat):
			ph.problem("request %d (%s/%s): handler at %.3f..%.3f ms of the client's %.3f ms (client time bound %.3f ms)",
				reqID, r.req.bench, r.req.apiName(), ms(iv.start.Sub(r.start)), ms(iv.end.Sub(r.start)), ms(r.lat), ms(clientBound(r.lat)))
		}
		parent := ph.tr.record("server.request", 0, reqID, r.start, r.lat)
		if ok {
			ph.tr.record("server.handler", parent, reqID, iv.start, iv.end.Sub(iv.start))
		}
	}
	w.results = append(w.results, res)
	for _, r := range res {
		if r.resp != nil {
			ph.add(p, "emulator.steps", r.resp.Steps)
			ph.add(p, "emulator.power_failures", int64(r.resp.PowerFailures))
			ph.add(p, "emulator.saves", int64(r.resp.Saves))
			ph.add(p, "emulator.restores", int64(r.resp.Restores))
		}
	}
	// Every request is a miss in both tiers and writes through to disk.
	dc := deltaOf(before, after)
	n := int64(len(seq))
	if dc.hits != 0 || dc.coalesced != 0 || dc.misses != n || dc.storeHits != 0 || dc.storePuts != n {
		ph.problem("pass %d: expected %d cold misses and puts, /metrics says %+v", p, n, dc)
	}
	return wall, nil
}

// reference runs the MiniC AST interpreter on the inputs the daemon
// generates for seed.
func reference(name, src string, seed int64) ([]int64, error) {
	f, err := minic.ParseFile(name, src)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(f); err != nil {
		return nil, err
	}
	m, err := minic.Lower(f)
	if err != nil {
		return nil, err
	}
	r, err := minic.Interpret(f, trace.RandomInputs(m, rand.New(rand.NewSource(seed))), 0)
	if err != nil {
		return nil, err
	}
	return r.Output, nil
}

func (w *cold) check(ph *phase) error {
	for _, pass := range w.results {
		for _, r := range pass {
			if r.resp == nil {
				continue
			}
			want, ok := w.refs[r.req.seed]
			if !ok {
				var err error
				if want, err = reference(r.req.bench, w.sources[r.req.bench], r.req.seed); err != nil {
					return fmt.Errorf("reference %s seed %d: %w", r.req.bench, r.req.seed, err)
				}
			}
			if !slices.Equal(want, r.resp.Output) {
				ph.fail("%s/%s seed %d: output %v, interpreter says %v", r.req.bench, r.req.apiName(), r.req.seed, r.resp.Output, want)
			}
		}
	}
	return nil
}

// mirrored is the traced replay of one request.
type mirrored struct {
	res         *emulator.Result
	eb          float64
	checkpoints int
	mcycles     float64 // profiled cycles, AvgCycles×Runs / 1e6
}

// mirror replays one default emulate request by calling the public
// functions the daemon's prepare and runEmulate call, with the same
// options, under stage spans that share the request's ID.
func mirror(tr *tracer, reqID int64, name, src string, tech baselines.Technique, seed int64) (*mirrored, error) {
	root := tr.begin("pipeline", 0, reqID)
	defer tr.end(root)
	stage := func(layer string, fn func() error) error {
		id := tr.begin(layer, root, reqID)
		defer tr.end(id)
		return fn()
	}
	model := energy.MSP430FR5969()
	var m *ir.Module
	var prof *trace.Profile
	if err := stage("minic.compile", func() (err error) {
		m, err = minic.Compile(name, src)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("trace.collect", func() (err error) {
		prof, err = trace.Collect(m, trace.Options{Runs: defaultProfileRuns, Seed: seed, Model: model})
		return err
	}); err != nil {
		return nil, err
	}
	eb := prof.EBForTBPF(defaultTBPF)
	if !tech.SupportsVM(m, defaultVMSize) {
		return nil, fmt.Errorf("%s does not support %s", tech.Name(), name)
	}
	if err := stage("baselines.apply", func() error {
		return tech.Apply(m, baselines.Params{Model: model, Budget: eb, VMSize: defaultVMSize, Profile: prof})
	}); err != nil {
		return nil, err
	}
	inputs := trace.RandomInputs(m, rand.New(rand.NewSource(seed)))
	// The daemon runs on a fresh model value, so the engine compiles the
	// placed module on entry; compiling it here first, for the same
	// model, lets the two costs be told apart.
	runModel := energy.MSP430FR5969()
	_ = stage("dispatch.compile", func() error {
		dispatch.For(m, runModel)
		return nil
	})
	var res *emulator.Result
	if err := stage("emulator.run", func() (err error) {
		res, err = emulator.Run(m, emulator.Config{
			Model: runModel, VMSize: defaultVMSize, Intermittent: eb > 0, EB: eb, Inputs: inputs,
		})
		return err
	}); err != nil {
		return nil, err
	}
	return &mirrored{
		res:         res,
		eb:          eb,
		checkpoints: crashtest.CountCheckpoints(m),
		mcycles:     prof.AvgCycles * float64(prof.Runs) / 1e6,
	}, nil
}

var coldStages = []string{"minic.compile", "trace.collect", "baselines.apply", "dispatch.compile", "emulator.run"}

// reconcile is one request's latency split in the span file. Latency is
// client plus handler time, both measured on this request. The handler
// time splits into the stages and the remainder, but the stage times
// come from the mirror's replay, a second run of the same request, so
// that split is an estimate that carries the noise between two runs.
type reconcile struct {
	Req         int64   `json:"req"`
	Program     string  `json:"program"`
	Technique   string  `json:"technique"`
	LatencyMS   float64 `json:"latency_ms"`
	ClientMS    float64 `json:"client_ms"`
	HandlerMS   float64 `json:"handler_ms"`
	StagesMS    float64 `json:"stages_ms"`    // mirror replay
	RemainderMS float64 `json:"remainder_ms"` // handler - stages: estimate
}

// layers replays the traced phase's requests through the mirror, checks
// each replay against the daemon's answer, and derives the layer
// metrics from the spans.
func (w *cold) layers(ph *phase) (map[string]float64, error) {
	tr := ph.tr
	type job struct {
		id int64
		r  coldResult
	}
	var jobs []job
	for p, pass := range w.results {
		for i, r := range pass {
			jobs = append(jobs, job{int64(p*len(pass) + i + 1), r})
		}
	}
	mirrors := make([]*mirrored, len(jobs))
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(jobs), func(i int) {
		j := jobs[i]
		mr, err := mirror(tr, j.id, j.r.req.bench, w.sources[j.r.req.bench], j.r.req.tech, j.r.req.seed)
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return
		}
		mirrors[i] = mr
	})
	if firstErr != nil {
		return nil, fmt.Errorf("mirror: %w", firstErr)
	}

	stageSum := map[int64]time.Duration{}
	for _, name := range coldStages {
		for _, s := range tr.named(name) {
			stageSum[s.Req] += s.dur()
		}
	}
	var remainders, clients []float64
	var latTotal time.Duration
	var mcycles, checkpoints float64
	for i, j := range jobs {
		mr, r := mirrors[i], j.r.resp
		if r == nil {
			continue
		}
		if !slices.Equal(mr.res.Output, r.Output) || mr.res.Steps != r.Steps || mr.res.Cycles != r.Cycles ||
			mr.res.TotalCycles != r.TotalCycles || mr.res.PowerFailures != r.PowerFailures ||
			mr.res.Saves != r.Saves || mr.res.Restores != r.Restores || mr.eb != r.EBnJ {
			ph.problem("mirror of request %d (%s/%s) differs from the daemon: steps %d vs %d, eb %g vs %g",
				j.id, j.r.req.bench, j.r.req.apiName(), mr.res.Steps, r.Steps, mr.eb, r.EBnJ)
		}
		if j.id <= int64(len(w.pairs)) {
			checkpoints += float64(mr.checkpoints)
		}
		mcycles += mr.mcycles
		latTotal += j.r.lat
		handler := j.r.handler.end.Sub(j.r.handler.start)
		rem := ms(handler - stageSum[j.id])
		remainders = append(remainders, rem)
		clients = append(clients, ms(j.r.client()))
		ph.extraSpanRecords = append(ph.extraSpanRecords, reconcile{
			Req: j.id, Program: j.r.req.bench, Technique: j.r.req.apiName(),
			LatencyMS: ms(j.r.lat), ClientMS: ms(j.r.client()), HandlerMS: ms(handler),
			StagesMS: ms(stageSum[j.id]), RemainderMS: rem,
		})
	}
	collect := tr.total("trace.collect")
	v := map[string]float64{
		"trace.collect_ms":          median(tr.durationsMS("trace.collect")),
		"trace.collect_share":       collect.Seconds() / latTotal.Seconds(),
		"trace.mcycles_per_s":       mcycles / collect.Seconds(),
		"minic.compile_ms":          median(tr.durationsMS("minic.compile")),
		"baselines.apply_ms":        median(tr.durationsMS("baselines.apply")),
		"baselines.checkpoints":     checkpoints,
		"dispatch.compile_ms":       median(tr.durationsMS("dispatch.compile")),
		"emulator.run_ms":           median(tr.durationsMS("emulator.run")),
		"server.request_ms.emulate": median(tr.durationsMS("server.request")),
		"server.remainder_ms":       median(remainders),
		"server.client_ms":          median(clients),
	}
	for _, k := range []string{"emulator.steps", "emulator.power_failures", "emulator.saves", "emulator.restores"} {
		v[k] = float64(ph.counts[0][k])
	}
	// server.hit_ratio and server.store_hit_ratio stay 0: pass requires
	// every request to miss both tiers.
	var err error
	v["store.put_ms"], v["store.get_ms"], err = storeTimes(w.d.st, filepath.Join(w.dir, "cold-store-copy"), tr)
	return v, err
}

// notes reports the request whose client-side time comes closest to
// clientBound.
func (w *cold) notes(ph *phase) []string {
	var worst coldResult
	for _, pass := range w.results {
		for _, r := range pass {
			if worst.lat == 0 || r.client().Seconds()/clientBound(r.lat).Seconds() > worst.client().Seconds()/clientBound(worst.lat).Seconds() {
				worst = r
			}
		}
	}
	return []string{fmt.Sprintf("largest client-side time against its bound: %.3f of %.3f ms (%s, latency %.3f ms)",
		ms(worst.client()), ms(clientBound(worst.lat)), worst.req.bench+"/"+worst.req.apiName(), ms(worst.lat))}
}
