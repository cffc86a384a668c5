package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// maxProblems bounds the failure messages a phase keeps; every failure
// is still counted.
const maxProblems = 20

// phase collects one measured stretch of a run: the job latencies, the
// failure ledger and each pass's exact counts.
type phase struct {
	tr *tracer // nil when untraced

	mu        sync.Mutex
	lat       []float64 // ms per job
	labels    []string  // what each job ran, e.g. "sha/mementos"
	attempted int64
	failed    int64
	problems  []string

	counts     []map[string]int64 // per pass; written by pass goroutines under mu
	wall       time.Duration      // summed timed windows of the passes
	passRates  []float64          // jobs per second of each pass
	passes     int
	allocBytes uint64

	// extraSpanRecords are written to the span file after the spans.
	extraSpanRecords []any
}

// job records one finished job and whether it succeeded.
func (ph *phase) job(label string, d time.Duration, ok bool, why string) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lat = append(ph.lat, ms(d))
	ph.labels = append(ph.labels, label)
	ph.attempted++
	if !ok {
		ph.failed++
		ph.addProblemLocked(why)
	}
}

// fail marks a job that was recorded as succeeded but whose output the
// oracle rejects afterwards.
func (ph *phase) fail(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.failed++
	ph.addProblemLocked(fmt.Sprintf(format, args...))
}

// problem records a disagreement that is no single job's failure, such
// as an exact count that does not repeat.
func (ph *phase) problem(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.addProblemLocked(fmt.Sprintf(format, args...))
}

func (ph *phase) addProblemLocked(msg string) {
	if len(ph.problems) < maxProblems {
		ph.problems = append(ph.problems, msg)
	}
}

// add adds v to pass p's exact count key.
func (ph *phase) add(p int, key string, v int64) {
	ph.mu.Lock()
	ph.counts[p][key] += v
	ph.mu.Unlock()
}

// owner names the job at quantile q of lat, the phase's latency
// samples in job order, so a report can say which program each
// percentile falls on.
func (ph *phase) owner(lat []float64, q float64) string {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	if len(idx) == 0 {
		return ""
	}
	return ph.labels[idx[rank(len(idx), q)-1]]
}

// fastestRepeats replaces each job's latency with the fastest of its
// label's repeats in the phase, and returns them with the throughput of
// a pass made of those fastest repeats, for a workload whose passes run
// the same deterministic jobs one at a time. A repeat is slower than
// the fastest only by what the host took from it (on a shared host,
// other tenants slow a fixed loop by up to half for seconds at a time),
// so the fastest repeat is the job's own cost. The jobs start from a
// collected heap, so garbage a job makes itself still counts.
func (ph *phase) fastestRepeats() (jobsPerSec float64, lat []float64) {
	fastest := map[string]float64{}
	for i, l := range ph.labels {
		if v, ok := fastest[l]; !ok || ph.lat[i] < v {
			fastest[l] = ph.lat[i]
		}
	}
	lat = make([]float64, len(ph.lat))
	var sum float64
	for i, l := range ph.labels {
		lat[i] = fastest[l]
		sum += lat[i]
	}
	return float64(len(lat)) / (sum / 1000), lat
}

// littlesLaw returns the throughput of a closed loop of `clients`
// clients by Little's law, clients over the mean latency, and every
// latency sample. It leaves out the drain at the end of each pass, when
// one client waits for the other's last request, which varies with the
// pass's seeded order.
func (ph *phase) littlesLaw() (jobsPerSec float64, lat []float64) {
	var sum float64
	for _, v := range ph.lat {
		sum += v
	}
	return clients * float64(len(ph.lat)) / (sum / 1000), ph.lat
}

// medianPass returns the median pass's throughput and every latency
// sample. Every pass runs the same job multiset, so the median drops a
// pass the host stalled without dropping costs that recur in every
// pass, such as collections.
func (ph *phase) medianPass() (jobsPerSec float64, lat []float64) {
	return median(ph.passRates), ph.lat
}

// rank is the 1-based rank of quantile q among n sorted samples; see
// quantile.
func rank(n int, q float64) int {
	return min(int(math.Floor(q*float64(n)))+1, n)
}

// quantile returns the sample at rank ⌊q·n⌋+1 of n sorted samples. Jobs
// of a pass come in equal-sized bands (one sample per case and pass), so
// q·n often falls exactly on a band edge; this rule then takes the
// fastest sample of the band above, which one slow outlier in the band
// below cannot move.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
