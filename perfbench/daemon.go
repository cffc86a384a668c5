package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schematic/internal/server"
	"schematic/internal/store"
)

// clients is the closed-loop client count of the HTTP workloads: one
// per CPU of the 2-CPU machine the benchmark was sized on.
const clients = 2

// daemon is an in-process schematicd: the public handler over a disk
// store, served on a loopback port and reached through a real HTTP
// client.
type daemon struct {
	dir    string
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error

	mu      sync.Mutex
	handled map[int64]interval // request ID → the handler's time on it
}

// interval is a stretch of time on the benchmark's clock.
type interval struct{ start, end time.Time }

// reqHeader carries a request's ID from the client to the timing wrapper
// around the handler.
const reqHeader = "X-Perfbench-Request"

// startDaemon opens a fresh store under dir and serves the handler with
// the given result-cache capacity (0 = the daemon default). Workers stay
// at their default, NumCPU.
func startDaemon(dir string, cacheCap int) (*daemon, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: st, CacheCap: cacheCap})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		dir:     dir,
		st:      st,
		srv:     srv,
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		handled: map[int64]interval{},
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
	d.hs = &http.Server{Handler: d.timed(srv.Handler())}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// timed wraps the daemon's handler and records how long it spent on each
// request that carries an ID. The daemon runs in this process, so the
// interval is on the same clock as the client's timing of the request.
func (d *daemon) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
			d.mu.Lock()
			d.handled[id] = interval{start, end}
			d.mu.Unlock()
		}
	})
}

// handlerTime returns the handler's interval on request id.
func (d *daemon) handlerTime(id int64) (interval, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	iv, ok := d.handled[id]
	return iv, ok
}

// post sends one request and returns the status and body. A transport
// error returns code 0. A nonzero id asks the handler's wrapper to time
// the request under that ID.
func (d *daemon) post(path string, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// counters reads the unlabelled counters of GET /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// stop shuts the listener, drains the server and removes the store.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // in-flight requests finish; a timeout only leaves a scratch dir
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: daemon:", err)
	}
	_ = d.srv.Drain(ctx)
	d.srv.Close()
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// cacheDelta is the change of the daemon's cache and store counters
// over a stretch of requests.
type cacheDelta struct {
	hits, misses, coalesced, storeHits, storePuts int64
}

func (c cacheDelta) lookups() int64 { return c.hits + c.misses + c.coalesced }

// shares reports the memory-cache and disk-store hits as shares of all
// cache lookups.
func (c cacheDelta) shares() (hit, store float64) {
	n := float64(c.lookups())
	if n == 0 {
		return 0, 0
	}
	return float64(c.hits) / n, float64(c.storeHits) / n
}

func deltaOf(before, after map[string]float64) cacheDelta {
	d := func(k string) int64 { return int64(after[k] - before[k]) }
	return cacheDelta{
		hits:      d("schematicd_cache_hits_total"),
		misses:    d("schematicd_cache_misses_total"),
		coalesced: d("schematicd_cache_coalesced_total"),
		storeHits: d("schematicd_store_hits_total"),
		storePuts: d("schematicd_store_puts_total"),
	}
}

// closedLoop runs fn(i) for i in [0,n) from `clients` goroutines, each
// taking the next index when its previous job finishes, and returns the
// wall time from the first start to the last finish.
func closedLoop(n int, fn func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// storeTimes times direct store calls on the payloads the daemon
// persisted: a Put of each into a scratch store under dir, then a Get of
// each back. It returns the median put and get times in ms.
func storeTimes(src *store.Store, dir string, tr *tracer) (put, get float64, err error) {
	var payloads [][]byte
	var digests []string
	err = src.Walk(func(digest string) error {
		b, ok, err := src.Get(digest)
		if err != nil || !ok {
			return fmt.Errorf("store entry %s unreadable: %v", digest, err)
		}
		digests = append(digests, digest)
		payloads = append(payloads, b)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if len(payloads) == 0 {
		return 0, 0, nil
	}
	dst, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	for i, b := range payloads {
		id := tr.begin("store.put", 0, int64(i))
		err := dst.Put(digests[i], b)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	for i, want := range payloads {
		id := tr.begin("store.get", 0, int64(i))
		b, ok, err := dst.Get(digests[i])
		tr.end(id)
		if err != nil || !ok || !bytes.Equal(b, want) {
			return 0, 0, fmt.Errorf("store round trip of %s: ok=%v err=%v", digests[i], ok, err)
		}
	}
	return median(tr.durationsMS("store.put")), median(tr.durationsMS("store.get")), nil
}
