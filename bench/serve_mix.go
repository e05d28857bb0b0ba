package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polarstar/internal/serve"
	"polarstar/internal/sim"
)

// serve_mix drives serve.Service over real loopback TCP (httptest
// server) in a closed loop: two keep-alive clients that each wait for a
// reply before sending the next request, like the sweep scripts that
// call psserve, and a pool of two evaluation workers — all on the one P
// everything timed runs on, so the pool, the queue and the in-flight join
// are exercised by concurrency, not by parallelism. Four phases: cold
// (distinct keys, each runs the engine), joined (both clients post one
// fresh key at once), warm (seeded draws over the resident keys, every
// body compared with its cold body), reject (malformed bodies that must
// get a 4xx). The units are the cold phase's three routing groups, each
// joined key, each warm round and the reject phase; a pass starts from a
// fresh service and is about 3.6 s, so that a 30-s run times each unit
// seven times and its best time can be taken (run.go, timed). That is
// why the cold requests are short (200-cycle windows, about 0.2 s each)
// and the warm phase sends 20 000 requests.

type serveSizes struct {
	specs    []string
	routings []string
	cycles   int // measurement window of the cold requests
	joinKeys int
	joinSpec string
	warm     int
	rejects  int
	probeN   int
}

func serveSizing(smoke bool) serveSizes {
	if smoke {
		return serveSizes{specs: []string{"hx-small"}, routings: []string{"min", "mp-min"}, cycles: 200,
			joinKeys: 1, joinSpec: "hx-small", warm: 20, rejects: 12, probeN: 50}
	}
	return serveSizes{specs: []string{"ps-iq", "bf", "hx", "df"}, routings: []string{"min", "ugal", "mp-min"}, cycles: 200,
		joinKeys: 2, joinSpec: "hx", warm: 20000, rejects: 2000, probeN: 20000}
}

// warmRounds is how many equal rounds the warm requests are sent in;
// each round is a unit.
const warmRounds = 10

// serveClients is the number of closed-loop clients and of evaluation
// workers in the service's pool.
const serveClients = 2

// serveEnv is what set-up builds: the service behind a loopback
// listener and serveClients keep-alive clients, each of which has had its
// first reply (GET /healthz), so every connection is open before the
// timed region.
type serveEnv struct {
	svc     *serve.Service
	ts      *httptest.Server
	clients []*http.Client
}

func newServeEnv() (*serveEnv, error) {
	svc := serve.New(serve.Config{Workers: serveClients})
	se := &serveEnv{svc: svc, ts: httptest.NewServer(svc.Handler())}
	for i := 0; i < serveClients; i++ {
		c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		se.clients = append(se.clients, c)
		resp, err := c.Get(se.ts.URL + "/healthz")
		if err != nil {
			return se, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return se, fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
		}
	}
	return se, nil
}

func (se *serveEnv) close() {
	if se == nil {
		return
	}
	for _, c := range se.clients {
		c.CloseIdleConnections()
	}
	se.ts.Close()
	se.svc.Close()
}

// reply is one completed request as the client saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	err    error
	us     float64
}

func (se *serveEnv) post(client int, body string) reply {
	start := time.Now()
	resp, err := se.clients[client].Post(se.ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data, err: err,
		us: float64(time.Since(start).Nanoseconds()) / 1e3}
}

// requestSeed derives a positive per-request engine seed from the
// workload seed (the service rejects negatives and maps 0 to 1).
func requestSeed(seed int64, i int) int64 {
	return 1 + (seed*1_000_003+int64(i)*7919)&(1<<31-1)
}

// evalBody asks for one engine worker per run: the pool already runs
// two requests side by side, and engine workers that meet at a barrier
// every cycle measure the host's scheduler (see fault_resilience.go).
func evalBody(spec, routing string, cycles int, seed int64) string {
	return fmt.Sprintf(`{"spec":%q,"routing":%q,"load":0.3,"cycles":%d,"seed":%d,"workers":1}`, spec, routing, cycles, seed)
}

// rejectBodies are the shapes of bad request the reject phase cycles
// through; %d takes a counter so no two bodies are equal.
var rejectBodies = []string{
	`{"spec":"no-such-spec-%d"}`,
	`{"spec":"hx","load":%d.5}`,
	`{"spec":"hx","seed":-%d}`,
	`{"spec":"hx","bogus_field":%d}`,
	`{"spec":"hx","routing":"warp-%d"}`,
	`{"spec":"hx"} trailing-%d`,
	`{"spec":"hx","cycles":-%d}`,
	`{"spec":"hx","lanes":%d}`,
	`{"spec":"hx","routing":"mp-min","lanes":9%d}`,
	`{"spec":"hx","repair_delay":1%d}`,
	`not json at all %d`,
	`{"spec":%d}`,
}

func runServeMix(e *env) {
	sz := serveSizing(e.smoke)
	var se *serveEnv
	e.setup(func(parent int) {
		se.close()
		e.tr.do(parent, "serve.start", 0, func(int) {
			var err error
			se, err = newServeEnv()
			e.op(err == nil, "service start: %v", err)
		})
	})
	if e.res.Failed > 0 {
		return
	}
	defer func() { se.close() }()

	// Every request of the run, generated from the seed before anything
	// is sent: the service sees only these bodies.
	var cold, joined []string
	for _, routing := range sz.routings { // routing-major: the first len(specs) requests each build a spec
		for _, spec := range sz.specs {
			cold = append(cold, evalBody(spec, routing, sz.cycles, requestSeed(e.res.Seed, len(cold))))
		}
	}
	for i := 0; i < sz.joinKeys; i++ {
		joined = append(joined, evalBody(sz.joinSpec, "min", sz.cycles, requestSeed(e.res.Seed, 1000+i)))
	}
	resident := append(append([]string(nil), cold...), joined...)

	// A later pass needs a service whose cache is empty again.
	fresh := func(pass int) {
		if pass > 0 {
			se.close()
			var err error
			se, err = newServeEnv()
			e.op(err == nil, "service restart: %v", err)
		}
	}
	var warmSent float64 // warm requests of one pass
	e.passes(fresh, func(parent, pass int) map[string]float64 {
		first := pass == 0
		m := map[string]float64{}
		bodies := map[string][]byte{} // request → its cold response
		var mu sync.Mutex
		fail := func(ok bool, format string, args ...any) {
			if first {
				mu.Lock()
				e.op(ok, format, args...)
				mu.Unlock()
			}
		}
		// phase runs fn(client) on every client concurrently as the unit
		// "phase/"+key.
		phase := func(name, key string, fn func(parent, client int)) {
			e.timed("phase/"+key, parent, "bench.phase_"+name, 0, func(self int) {
				var wg sync.WaitGroup
				for c := range se.clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						fn(self, c)
					}()
				}
				wg.Wait()
			})
		}

		// Cold: per routing, clients pull the distinct requests (one a
		// spec) off one list.
		coldMS := make([]float64, len(cold))
		for g, routing := range sz.routings {
			var next atomic.Int64
			lo, hi := g*len(sz.specs), (g+1)*len(sz.specs)
			phase("cold", "cold/"+routing, func(parent, c int) {
				for {
					i := lo + int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					var r reply
					e.tr.do(parent, "serve.cold", i, func(int) { r = se.post(c, cold[i]) })
					fail(r.err == nil && r.status == 200 && r.cache == "miss", "cold %s: status %d cache %q err %v", cold[i], r.status, r.cache, r.err)
					coldMS[i] = r.us / 1e3
					mu.Lock()
					bodies[cold[i]] = r.body
					mu.Unlock()
				}
			})
		}
		for i, v := range coldMS {
			e.least(fmt.Sprintf("req/cold/%d", i), v)
		}
		m["serve.cold_first_ms"] = mean(coldMS[:len(sz.specs)])
		m["serve.cold_built_ms"] = mean(coldMS[len(sz.specs):])

		// Joined: every client posts the same fresh key behind a barrier.
		var joinMS []float64
		for k, body := range joined {
			replies := make([]reply, len(se.clients))
			phase("joined", fmt.Sprintf("joined/%d", k), func(parent, c int) {
				e.tr.do(parent, "serve.joined", k, func(int) { replies[c] = se.post(c, body) })
			})
			for _, r := range replies {
				fail(r.err == nil && r.status == 200 && bytes.Equal(r.body, replies[0].body),
					"joined %s: status %d err %v, bodies equal %v", body, r.status, r.err, bytes.Equal(r.body, replies[0].body))
				joinMS = append(joinMS, r.us/1e3)
			}
			bodies[body] = replies[0].body
		}
		m["serve.join_wait_ms"] = median(joinMS)

		// Warm: seeded draws over the resident keys, each client its own
		// stream; every body must replay its cold body as a cache hit. The
		// requests go out in warmRounds equal rounds, each a unit.
		perRound := max(sz.warm/warmRounds/len(se.clients), 1)
		warmUS := make([][]float64, len(se.clients))
		hits := make([]int64, len(se.clients))
		rngs := make([]*rand.Rand, len(se.clients))
		for c := range rngs {
			rngs[c] = rand.New(rand.NewSource(e.res.Seed*31 + int64(c)))
		}
		for round := 0; round < warmRounds; round++ {
			phase("warm", fmt.Sprintf("warm/%d", round), func(parent, c int) {
				for i := 0; i < perRound; i++ {
					body := resident[rngs[c].Intn(len(resident))]
					var r reply
					e.tr.do(parent, "serve.warm", (round*len(se.clients)+c)*perRound+i, func(int) { r = se.post(c, body) })
					if r.err == nil && r.status == 200 && r.cache == "hit" && bytes.Equal(r.body, bodies[body]) {
						hits[c]++ // counted as attempted operations after the phase
					} else {
						fail(false, "warm %s: status %d cache %q err %v, body equal %v", body, r.status, r.cache, r.err, bytes.Equal(r.body, bodies[body]))
					}
					warmUS[c] = append(warmUS[c], r.us)
				}
			})
		}
		warmSent = float64(warmRounds * perRound * len(se.clients))
		var warm []float64
		for c, us := range warmUS {
			warm = append(warm, us...)
			e.opsOK(int(hits[c]))
		}
		if first {
			e.sample("warm_p50_us", "us", warm) // for the report's sample count and tail; the metric is set below
		}
		e.least("stat/warm_p50_us", median(warm))
		m["serve.warm_p99_us"] = percentile(warm, 99)
		m["serve.warm_p999_us"] = percentile(warm, 99.9)

		// Reject: malformed bodies, each a 4xx and never a 5xx.
		rejectUS := make([][]float64, len(se.clients))
		phase("reject", "reject", func(parent, c int) {
			n := sz.rejects / len(se.clients)
			for i := 0; i < n; i++ {
				id := c*n + i
				body := fmt.Sprintf(rejectBodies[id%len(rejectBodies)], id)
				var r reply
				e.tr.do(parent, "serve.reject", id, func(int) { r = se.post(c, body) })
				fail(r.err == nil && r.status >= 400 && r.status < 500, "reject %q: status %d err %v", body, r.status, r.err)
				rejectUS[c] = append(rejectUS[c], r.us)
			}
		})
		var rej []float64
		for _, us := range rejectUS {
			rej = append(rej, us...)
		}
		m["serve.reject_p50_us"] = median(rej)

		st := se.svc.Stats()
		m["serve.cache_hits"] = float64(st.CacheHits)
		m["serve.cache_misses"] = float64(st.CacheMisses)
		m["serve.joined"] = float64(st.Joined)
		m["serve.shed"] = float64(st.Shed)
		m["serve.builds"] = float64(st.Builds)
		m["serve.build_hits"] = float64(st.BuildHits)
		m["serve.cached_bytes"] = float64(st.CachedBytes)
		m["serve.hit_ratio"] = float64(st.CacheHits) / float64(max(st.Requests, 1))
		if first {
			e.op(st.Shed == 0 && st.CacheMisses == int64(len(resident)) && st.BadRequests == int64(len(rej)),
				"service counters: shed %d, misses %d (want %d), bad requests %d (want %d)",
				st.Shed, st.CacheMisses, len(resident), st.BadRequests, len(rej))
		}
		return m
	})

	// End to end: every phase at its best time, every cold request at its
	// best latency, the warm median of the best pass.
	e.set("wall_s", e.bestSum("phase/"))
	e.set("cold_p50_ms", median(e.bests("req/cold/")))
	e.set("op_p50_ms", median(e.bests("req/cold/")))
	e.set("warm_p50_us", e.best["stat/warm_p50_us"])
	e.set("warm_req_per_s", warmSent/e.bestSum("phase/warm/"))
	e.set("work_per_s", warmSent/e.bestSum("phase/warm/"))

	if e.tr != nil {
		e.tr.do(-1, "bench.probe", 0, func(parent int) { serveProbes(e, parent, se, sz, cold[0]) })
	}
}

// serveProbes takes the serve path apart from outside: request decoding
// and keying alone, the handler without TCP (the gap to warm_p50_us is
// net/http and loopback, which no change here can move), the spec builds
// a first request pays, and how much a second engine worker buys one
// run (on min(nproc, 4) Ps: the one probe of the parallel engine).
func serveProbes(e *env, parent int, se *serveEnv, sz serveSizes, warmBody string) {
	d := e.tr.do(parent, "serve.decode_key", 0, func(int) {
		for i := 0; i < sz.probeN; i++ {
			req, err := serve.DecodeEvalRequest(strings.NewReader(warmBody))
			if err == nil {
				err = req.Normalize()
			}
			if err != nil || req.Key(nil) == "" {
				e.op(false, "decode/normalize/key of %s: %v", warmBody, err)
				return
			}
		}
	})
	e.set("serve.decode_key_us", float64(d.Nanoseconds())/1e3/float64(sz.probeN))

	h := se.svc.Handler()
	d = e.tr.do(parent, "serve.handler_warm", 0, func(int) {
		for i := 0; i < sz.probeN; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", strings.NewReader(warmBody)))
			if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
				e.op(false, "handler replay: status %d cache %q", rec.Code, rec.Header().Get("X-Cache"))
				return
			}
		}
	})
	e.set("serve.handler_warm_us", float64(d.Nanoseconds())/1e3/float64(sz.probeN))

	var buildMS float64
	var specs []*sim.Spec
	for i, name := range sz.specs {
		buildMS += ms(e.tr.do(parent, "topo.spec_build", i, func(int) {
			spec, err := sim.NewSpec(name)
			e.op(err == nil, "NewSpec(%s): %v", name, err)
			specs = append(specs, spec)
		}))
	}
	e.set("topo.spec_build_ms", buildMS)
	e.set("topo.specs_built", float64(len(specs)))
	if len(specs) == 0 || specs[0] == nil {
		return
	}

	scale := func(workers int) float64 {
		p := sim.DefaultParams(e.res.Seed)
		p.Warmup, p.Measure, p.Drain = sz.cycles/4, sz.cycles/2, sz.cycles*3/4
		p.Workers = workers
		return e.tr.do(parent, fmt.Sprintf("sim.point_w%d", workers), workers, func(int) {
			_, err := sim.RunPoint(context.Background(), specs[0], sim.UGALMode, "uniform", 0.3, p)
			e.op(err == nil, "worker-scaling point at Workers=%d: %v", workers, err)
		}).Seconds()
	}
	one := scale(1)
	e.wide(func() { e.set("sim.worker_scaling", one/scale(e.ncpu)) })
}
