package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

// testConfig keeps service tests fast: small pool, tiny runs.
func testConfig() Config {
	return Config{Workers: 2, QueueDepth: 8, CacheBytes: 4 << 20, RunTimeout: 60 * time.Second}
}

// evalBody is the canonical fast request of the suite: a short run on
// the small PolarStar spec.
const evalBody = `{"spec":"ps-iq-small","cycles":200,"seed":3}`

func postEval(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServeEndToEnd is the tentpole round trip: health, a cold eval, a
// byte-identical warm replay that skips construction, async polling and
// the stats endpoint.
func TestServeEndToEnd(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz = %d %s", code, body)
	}

	coldStart := time.Now()
	code, hdr, cold := postEval(t, ts.URL, evalBody)
	coldDur := time.Since(coldStart)
	if code != http.StatusOK {
		t.Fatalf("cold eval = %d %s", code, cold)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("cold eval X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	var resp EvalResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatalf("cold body does not decode: %v", err)
	}
	if resp.Result.DeliveredFrac <= 0 || resp.Result.AvgLatency <= 0 {
		t.Fatalf("degenerate result: %+v", resp.Result)
	}
	if resp.Manifest.SpecHash == "" || resp.Manifest.Spec != "ps-iq-small" {
		t.Fatalf("manifest missing provenance: %+v", resp.Manifest)
	}
	if !isRunID(resp.Key) {
		t.Fatalf("malformed key %q", resp.Key)
	}

	hitsBefore := svc.Stats().CacheHits
	// The warm path must skip construction entirely: take the best of
	// many replays (absorbing scheduler noise) and demand it beats a
	// tenth of the cold path, which paid for topology construction and
	// a real simulation.
	warmDur := time.Hour
	var warm []byte
	for i := 0; i < 20; i++ {
		start := time.Now()
		code, hdr, body := postEval(t, ts.URL, evalBody)
		d := time.Since(start)
		if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			t.Fatalf("warm eval %d: code %d X-Cache %q", i, code, hdr.Get("X-Cache"))
		}
		if d < warmDur {
			warmDur = d
		}
		warm = body
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm replay differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	st := svc.Stats()
	if st.CacheHits != hitsBefore+20 {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, hitsBefore+20)
	}
	if st.Builds != 1 || st.CacheMisses != 1 {
		t.Fatalf("builds=%d misses=%d, want 1/1", st.Builds, st.CacheMisses)
	}
	if warmDur >= coldDur/10 {
		t.Errorf("warm replay %v not < 10%% of cold path %v", warmDur, coldDur)
	}

	// Async: a different tuple returns 202 + id, then polls to the
	// finished artifact.
	asyncBody := `{"spec":"ps-iq-small","cycles":200,"seed":4,"async":true}`
	code, _, accepted := postEval(t, ts.URL, asyncBody)
	if code != http.StatusAccepted {
		t.Fatalf("async eval = %d %s", code, accepted)
	}
	var pending struct{ ID, Status string }
	if err := json.Unmarshal(accepted, &pending); err != nil || pending.ID == "" {
		t.Fatalf("async body %s: %v", accepted, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, ts.URL+"/v1/runs/"+pending.ID)
		if code == http.StatusOK {
			var done EvalResponse
			if err := json.Unmarshal(body, &done); err != nil || done.Key != pending.ID {
				t.Fatalf("poll result %s: %v", body, err)
			}
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("poll = %d %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("async run never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	code, body := get(t, ts.URL+"/v1/cache/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats struct {
		Schema string         `json:"schema"`
		Serve  obs.ServeStats `json:"serve"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Schema != obs.Schema || stats.Serve.CachedRuns != 2 || stats.Serve.SpecsBuilt != 1 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	if stats.Serve.SpecBytes <= 0 {
		t.Fatalf("spec bytes not accounted: %+v", stats.Serve)
	}
}

// TestServeWorkerInvariance pins the cache-key contract: services and
// requests with different worker counts produce byte-identical bodies,
// which is why Workers is excluded from the key.
func TestServeWorkerInvariance(t *testing.T) {
	bodies := make([][]byte, 0, 2)
	for _, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		svc := New(cfg)
		ts := httptest.NewServer(svc.Handler())
		req := fmt.Sprintf(`{"spec":"ps-iq-small","cycles":200,"seed":3,"workers":%d}`, workers)
		code, _, body := postEval(t, ts.URL, req)
		ts.Close()
		svc.Close()
		if code != http.StatusOK {
			t.Fatalf("workers=%d: eval = %d %s", workers, code, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("results differ across worker counts:\n1: %s\n4: %s", bodies[0], bodies[1])
	}
}

// TestServeConcurrentSingleBuild submits the same spec from many
// goroutines at once: the builder must construct exactly once
// (singleflight) and every response must be bit-identical.
func TestServeConcurrentSingleBuild(t *testing.T) {
	svc := New(Config{Workers: 4, QueueDepth: 32, RunTimeout: 60 * time.Second})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Different seeds force distinct runs — all need the spec.
			req := fmt.Sprintf(`{"spec":"ps-iq-small","cycles":200,"seed":%d}`, 10+i%4)
			code, _, body := postEval(t, ts.URL, req)
			if code != http.StatusOK {
				t.Errorf("eval %d = %d %s", i, code, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (singleflight)", st.Builds)
	}
	// Identical tuples — whether joined in flight or replayed — must be
	// identical bytes.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%4 == j%4 && !bytes.Equal(bodies[i], bodies[j]) {
				t.Fatalf("same tuple, different bytes:\n%s\n%s", bodies[i], bodies[j])
			}
		}
	}
	if st.CacheMisses+st.Joined+st.CacheHits != n {
		t.Fatalf("admission accounting broken: %+v", st)
	}
}

// TestServeMalformedInputs drives the decoder and validator through the
// abuse table: every case must come back 4xx with a structured error —
// never a 5xx, never a panic.
func TestServeMalformedInputs(t *testing.T) {
	svc := New(testConfig())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// A guaranteed non-edge of ps-iq-small, for the plan-validation case.
	spec, err := sim.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	nonNbr := -1
	for v := 1; v < spec.Graph.N(); v++ {
		if !spec.Graph.HasEdge(0, v) {
			nonNbr = v
			break
		}
	}
	hugePlan := strings.Repeat("1 link-down 0 1\n", maxPlanBytes/16+1)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"truncated json", `{"spec":"ps-iq-sm`, http.StatusBadRequest},
		{"trailing data", evalBody + `{"x":1}`, http.StatusBadRequest},
		{"unknown field", `{"spec":"ps-iq-small","bogus":1}`, http.StatusBadRequest},
		{"missing spec", `{"seed":1}`, http.StatusBadRequest},
		{"unknown spec", `{"spec":"ps-iq-smal"}`, http.StatusBadRequest},
		{"negative seed", `{"spec":"ps-iq-small","seed":-1}`, http.StatusBadRequest},
		{"bad routing", `{"spec":"ps-iq-small","routing":"valiant"}`, http.StatusBadRequest},
		{"bad pattern", `{"spec":"ps-iq-small","cycles":200,"pattern":"nope"}`, http.StatusBadRequest},
		{"load over 1", `{"spec":"ps-iq-small","load":1.5}`, http.StatusBadRequest},
		{"negative load", `{"spec":"ps-iq-small","load":-0.1}`, http.StatusBadRequest},
		{"cycles over cap", fmt.Sprintf(`{"spec":"ps-iq-small","cycles":%d}`, maxEvalCycles+1), http.StatusBadRequest},
		{"negative workers", `{"spec":"ps-iq-small","workers":-2}`, http.StatusBadRequest},
		{"oversized plan", fmt.Sprintf(`{"spec":"ps-iq-small","fault_plan":%q}`, hugePlan), http.StatusBadRequest},
		{"malformed plan", `{"spec":"ps-iq-small","fault_plan":"1 link-frob 0 1"}`, http.StatusBadRequest},
		{"plan on non-edge", fmt.Sprintf(`{"spec":"ps-iq-small","cycles":200,"fault_plan":"5 link-down 0 %d"}`, nonNbr), http.StatusBadRequest},
		{"lanes over cap", `{"spec":"ps-iq-small","routing":"mp-min","lanes":99}`, http.StatusBadRequest},
		{"negative lanes", `{"spec":"ps-iq-small","routing":"mp-min","lanes":-1}`, http.StatusBadRequest},
		{"lanes without multipath", `{"spec":"ps-iq-small","lanes":2}`, http.StatusBadRequest},
		{"negative repair delay", `{"spec":"ps-iq-small","fault_plan":"5 link-down 0 1","repair_delay":-1}`, http.StatusBadRequest},
		{"repair delay without plan", `{"spec":"ps-iq-small","repair_delay":50}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _, body := postEval(t, ts.URL, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d (want %d), body %s", tc.name, code, tc.want, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: unstructured error body %s", tc.name, body)
		}
	}

	// Poll-endpoint abuse.
	if code, _ := get(t, ts.URL+"/v1/runs/not-hex!"); code != http.StatusBadRequest {
		t.Errorf("bad run id = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/runs/00000000000000ab"); code != http.StatusNotFound {
		t.Errorf("unknown run = %d, want 404", code)
	}
}

// TestNormalizeLoad pins the load bound on requests that reach Normalize
// without JSON (which cannot spell NaN or infinity): only (0, 1] passes,
// and 0 is the "use the default" marker.
func TestNormalizeLoad(t *testing.T) {
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		req := EvalRequest{Spec: "ps-iq-small", Load: load}
		if err := req.Normalize(); err == nil || !strings.Contains(err.Error(), "load must be in (0, 1]") {
			t.Errorf("load %g: err %v, want the load bound", load, err)
		}
	}
	req := EvalRequest{Spec: "ps-iq-small"}
	if err := req.Normalize(); err != nil || req.Load != 0.2 {
		t.Errorf("load 0: err %v, load %g; want the 0.2 default", err, req.Load)
	}
}

// TestServeFaultPlanRoundTrip runs a request with a valid scripted plan
// on a real edge: the manifest must carry the plan hash and the warm
// replay must stay byte-identical.
func TestServeFaultPlanRoundTrip(t *testing.T) {
	spec, err := sim.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	v := spec.Graph.Neighbors(0)[0]
	plan := fmt.Sprintf("120 link-down 0 %d", v)

	svc := New(testConfig())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"spec":"ps-iq-small","cycles":200,"seed":3,"fault_plan":%q}`, plan)
	code, _, cold := postEval(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("fault eval = %d %s", code, cold)
	}
	var resp EvalResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Manifest.FaultPlan == nil || resp.Manifest.FaultPlan.Events != 1 {
		t.Fatalf("manifest missing fault plan: %+v", resp.Manifest)
	}
	code, hdr, warm := postEval(t, ts.URL, body)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(cold, warm) {
		t.Fatalf("fault-plan replay broken: code %d X-Cache %q equal %v", code, hdr.Get("X-Cache"), bytes.Equal(cold, warm))
	}
	// Same request without the plan is a different artifact.
	code, _, healthy := postEval(t, ts.URL, evalBody)
	if code != http.StatusOK || bytes.Equal(cold, healthy) {
		t.Fatal("plan hash not part of the cache key")
	}
}

// TestEvalRequestKeyMultipathFields pins the cache-key contract for the
// degraded-topology fields: fault plan, lanes and repair delay each
// mint a distinct content address (no faulted/clean collision), while
// Workers and Async stay excluded.
func TestEvalRequestKeyMultipathFields(t *testing.T) {
	key := func(req EvalRequest) string {
		t.Helper()
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		plan, err := req.plan()
		if err != nil {
			t.Fatal(err)
		}
		return req.Key(plan)
	}
	base := EvalRequest{Spec: "ps-iq-small", Routing: "mp-min",
		FaultPlan: "5 link-down 0 1", Lanes: 2, RepairDelay: 40}
	k := key(base)

	distinct := map[string]func(r *EvalRequest){
		"clean plan":    func(r *EvalRequest) { r.FaultPlan = ""; r.RepairDelay = 0 },
		"other plan":    func(r *EvalRequest) { r.FaultPlan = "7 link-down 0 1" },
		"other lanes":   func(r *EvalRequest) { r.Lanes = 3 },
		"other delay":   func(r *EvalRequest) { r.RepairDelay = 41 },
		"other routing": func(r *EvalRequest) { r.Routing = "mp-ugal" },
	}
	for name, mutate := range distinct {
		req := base
		mutate(&req)
		if key(req) == k {
			t.Errorf("%s: request collides with the base key %s", name, k)
		}
	}
	shared := map[string]func(r *EvalRequest){
		"workers": func(r *EvalRequest) { r.Workers = 7 },
		"async":   func(r *EvalRequest) { r.Async = true },
	}
	for name, mutate := range shared {
		req := base
		mutate(&req)
		if key(req) != k {
			t.Errorf("%s: result-preserving field leaked into the key", name)
		}
	}
}

// TestServeMultipathRoundTrip runs a degraded mp-ugal request end to
// end: the artifact must record the multipath routing and the repair
// stall, and the warm replay must stay byte-identical.
func TestServeMultipathRoundTrip(t *testing.T) {
	spec, err := sim.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	v := spec.Graph.Neighbors(0)[0]

	svc := New(testConfig())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"spec":"ps-iq-small","routing":"mp-ugal","cycles":200,"seed":3,"fault_plan":"120 link-down 0 %d","repair_delay":60}`, v)
	code, _, cold := postEval(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("multipath eval = %d %s", code, cold)
	}
	var resp EvalResponse
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Manifest.Routing != "mp-ugal" {
		t.Errorf("manifest routing %q, want mp-ugal", resp.Manifest.Routing)
	}
	if resp.Manifest.FaultPlan == nil || resp.Manifest.FaultPlan.RepairDelay != 60 {
		t.Errorf("manifest missing repair delay: %+v", resp.Manifest.FaultPlan)
	}
	if resp.Result.DeliveredFrac <= 0 {
		t.Errorf("degraded multipath run delivered nothing: %+v", resp.Result)
	}
	code, hdr, warm := postEval(t, ts.URL, body)
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(cold, warm) {
		t.Fatalf("multipath replay broken: code %d X-Cache %q equal %v", code, hdr.Get("X-Cache"), bytes.Equal(cold, warm))
	}
}

// TestServeShedding fills the pool and queue with deterministically
// blocked jobs via the evaluate hook, then asserts the next request is
// shed with 429 + Retry-After and that released jobs still finish.
func TestServeShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	svc := New(Config{Workers: 1, QueueDepth: 1, RunTimeout: 60 * time.Second})
	defer svc.Close()
	svc.evaluateFn = func(j *job) ([]byte, int, error) {
		started <- j.key
		<-release
		return []byte(`{"ok":true}` + "\n"), http.StatusOK, nil
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Job 1 occupies the worker (wait for pickup before filling the
	// queue slot with job 2, or job 2 itself could be shed).
	code, _, body := postEval(t, ts.URL, `{"spec":"ps-iq-small","seed":100,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("setup eval 1 = %d %s", code, body)
	}
	<-started
	code, _, body = postEval(t, ts.URL, `{"spec":"ps-iq-small","seed":101,"async":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("setup eval 2 = %d %s", code, body)
	}

	code, hdr, body := postEval(t, ts.URL, `{"spec":"ps-iq-small","seed":102,"async":true}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload eval = %d %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if svc.Stats().Shed != 1 {
		t.Fatalf("shed = %d, want 1", svc.Stats().Shed)
	}

	close(release)
	// Both admitted jobs must drain to the cache.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().CachedRuns != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted jobs never finished: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDrain pins the shutdown contract: after Close, health and
// eval refuse with 503 and Close is idempotent.
func TestServeDrain(t *testing.T) {
	svc := New(testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close()
	svc.Close() // idempotent

	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d, want 503", code)
	}
	code, _, body := postEval(t, ts.URL, evalBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("eval after Close = %d %s, want 503", code, body)
	}
}

// TestResultCacheLRU pins the byte-budget mechanics: first-writer-wins,
// cold-end eviction, Peek not counting.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(100)
	c.Put("a", bytes.Repeat([]byte("x"), 40))
	c.Put("b", bytes.Repeat([]byte("y"), 40))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// First writer wins: a duplicate Put must not replace the bytes.
	c.Put("a", []byte("replacement"))
	if body, _ := c.Get("a"); len(body) != 40 {
		t.Fatalf("duplicate Put replaced the entry: %d bytes", len(body))
	}
	// c evicts the cold end — b, since a was just touched.
	c.Put("c", bytes.Repeat([]byte("z"), 40))
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Peek("a"); !ok {
		t.Fatal("a evicted despite recency")
	}
	// Oversized bodies are not cached.
	c.Put("huge", bytes.Repeat([]byte("h"), 101))
	if _, ok := c.Peek("huge"); ok {
		t.Fatal("oversized body cached")
	}
	hits, evictions, runs, cbytes := c.Stats()
	if hits != 2 || evictions != 1 || runs != 2 || cbytes != 80 {
		t.Fatalf("stats = %d/%d/%d/%d", hits, evictions, runs, cbytes)
	}
}

// TestBuilderSingleflight drives the builder directly: one
// construction under concurrency, stable hashes, errors for unknown
// names without construction work.
func TestBuilderSingleflight(t *testing.T) {
	b := NewBuilder()
	const n = 8
	got := make([]*BuiltSpec, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bs, err := b.Get("ps-iq-small")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = bs
		}(i)
	}
	wg.Wait()
	if b.builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", b.builds.Load())
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("builder returned distinct instances for one name")
		}
	}
	if got[0].Hash == "" || got[0].Bytes <= 0 {
		t.Fatalf("degenerate BuiltSpec: %+v", got[0])
	}
	// The hash is a pure function of the construction.
	b2 := NewBuilder()
	bs2, err := b2.Get("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	if bs2.Hash != got[0].Hash {
		t.Fatalf("hash unstable: %s vs %s", bs2.Hash, got[0].Hash)
	}
	if _, err := b.Get("no-such-spec"); err == nil {
		t.Fatal("unknown spec accepted")
	}
	if specs, _ := b.Resident(); specs != 1 {
		t.Fatalf("resident specs = %d, want 1", specs)
	}
}

// TestServeRunTimeout pins the deadline path: a run that cannot finish
// inside RunTimeout comes back 504.
func TestServeRunTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.RunTimeout = time.Nanosecond
	svc := New(cfg)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	code, _, body := postEval(t, ts.URL, evalBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out eval = %d %s, want 504", code, body)
	}
}
