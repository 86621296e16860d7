package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"columnsgd"
)

const (
	serveFeatures = 1000000 // one LR weight row of 8 MB
	serveNNZ      = 32
	requestPool   = 4096 // distinct requests, replayed in order
	baseRate      = 4000 // req/s the latency figures are taken at
	rateSteps     = 3    // 2x, 4x, 8x the base rate
	limitMs       = 10.0 // the latency limit on p99 a rate step must meet
	lagLimitMs    = 5.0  // a step whose generator ran later than this at p99 fell behind and fails
	checkEvery    = 8    // every 8th response is checked against the served weights
	serveSetups   = 15
	reloadPeriod  = 250 * time.Millisecond
	// maxBacklog bounds requests in flight during a rate step: half the
	// default admission queue, so an overloaded step fails by its backlog
	// instead of by refused requests.
	maxBacklog = 2048
	// satClients is the closed-loop concurrency of the capacity phase,
	// enough to keep every scoring slot busy without reaching maxBacklog.
	satClients = 128
	// slices is how many parts the base and capacity phases are cut into,
	// alternating, so that each spans the whole run: the shared host's
	// speed shifts over seconds, and a figure taken from one contiguous
	// stretch follows whatever the host did during it.
	slices = 4
)

// serveConfig is colsgd-serve's default configuration.
var serveConfig = columnsgd.ServeConfig{Model: columnsgd.LogisticRegression, Shards: 4, Replicas: 1,
	MaxBatch: 64, MaxWait: 2 * time.Millisecond}

// predictBody is the POST /predict request.
type predictBody struct {
	Instances []instance `json:"instances"`
}

type instance struct {
	Indices []int32   `json:"indices"`
	Values  []float64 `json:"values"`
}

type predictReply struct {
	ModelVersion int64 `json:"model_version"`
	Predictions  []struct {
		Label  float64 `json:"label"`
		Margin float64 `json:"margin"`
	} `json:"predictions"`
}

// served is one checked response.
type served struct {
	req           int
	version       int64
	label, margin float64
}

// loadgen drives the handler open-loop: request i of a phase is due at
// start + i/rate whatever happened to earlier ones, and its latency runs
// from that due time, so a stall is charged to every request it delays.
type loadgen struct {
	h      http.Handler
	bodies [][]byte

	mu      sync.Mutex
	samples []served
	next    int // request pool cursor, continues across phases
}

type phaseResult struct {
	rate       int
	sent       int
	failed     int64
	latMs      []float64 // from due time, successful requests
	dispMs     []float64 // from dispatch, successful requests
	lagMs      []float64 // dispatch minus due time
	backlogEnd int64
	aborted    bool
	spanS      float64 // first due time to last completion
}

// add appends another slice of the same phase.
func (r *phaseResult) add(o phaseResult) {
	r.rate = o.rate
	r.sent += o.sent
	r.failed += o.failed
	r.latMs = append(r.latMs, o.latMs...)
	r.dispMs = append(r.dispMs, o.dispMs...)
	r.lagMs = append(r.lagMs, o.lagMs...)
	r.backlogEnd = max(r.backlogEnd, o.backlogEnd)
	r.aborted = r.aborted || o.aborted
	r.spanS += o.spanS
}

func (r phaseResult) passed() bool {
	return !r.aborted && r.failed == 0 && pct(r.latMs, 99) <= limitMs && pct(r.lagMs, 99) <= lagLimitMs &&
		float64(r.backlogEnd) <= float64(r.rate)*limitMs/1000
}

// do sends request idx of the pool through the handler and reports
// whether it succeeded; every checkEvery-th call (by seq) keeps the
// response for the output check.
func (g *loadgen) do(seq, idx int) bool {
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(g.bodies[idx]))
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return false
	}
	if seq%checkEvery == 0 {
		var rep predictReply
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || len(rep.Predictions) != 1 {
			return false
		}
		p := rep.Predictions[0]
		g.mu.Lock()
		g.samples = append(g.samples, served{req: idx, version: rep.ModelVersion, label: p.Label, margin: p.Margin})
		g.mu.Unlock()
	}
	return true
}

// phase offers rate req/s open-loop for dur.
func (g *loadgen) phase(rate int, dur time.Duration) phaseResult {
	n := int(float64(rate) * dur.Seconds())
	res := phaseResult{rate: rate}
	lat := make([]float64, n)
	disp := make([]float64, n)
	ok := make([]bool, n)
	res.lagMs = make([]float64, 0, n)
	var outstanding, failed, lastDone atomic.Int64
	var wg sync.WaitGroup
	interval := float64(time.Second) / float64(rate)
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		res.lagMs = append(res.lagMs, ms(now.Sub(due)))
		// Past this backlog the step has failed; stop sending before the
		// server's admission queue would start refusing requests.
		if outstanding.Load() > maxBacklog {
			res.aborted = true
			break
		}
		res.sent++
		outstanding.Add(1)
		wg.Add(1)
		idx := g.next % len(g.bodies)
		g.next++
		go func(i, idx int, due, sent time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			good := g.do(i, idx)
			done := time.Now()
			for old := lastDone.Load(); done.UnixNano() > old && !lastDone.CompareAndSwap(old, done.UnixNano()); old = lastDone.Load() {
			}
			if !good {
				failed.Add(1)
				return
			}
			lat[i], disp[i], ok[i] = ms(done.Sub(due)), ms(done.Sub(sent)), true
		}(i, idx, due, now)
	}
	res.backlogEnd = outstanding.Load()
	wg.Wait()
	res.failed = failed.Load()
	for i := 0; i < res.sent; i++ {
		if ok[i] {
			res.latMs = append(res.latMs, lat[i])
			res.dispMs = append(res.dispMs, disp[i])
		}
	}
	res.spanS = float64(lastDone.Load()-start.UnixNano()) / 1e9
	return res
}

// capacity is what the closed-loop slices measured.
type capacity struct {
	windowRPS  []float64 // completed requests per second in each reload period
	ok, failed int64
	seconds    float64
}

// saturate runs clients closed-loop callers for dur and adds what they
// completed to c. Completions are also counted per window of one reload
// period, so that every window holds about one reload.
func (g *loadgen) saturate(c *capacity, clients int, dur time.Duration) {
	var next, okN, badN atomic.Int64
	perWindow := make([]atomic.Int64, max(int(dur/reloadPeriod), 1))
	base := int64(g.next)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seq := next.Add(1) - 1
				if !g.do(int(seq), int((base+seq)%int64(len(g.bodies)))) {
					badN.Add(1)
					continue
				}
				okN.Add(1)
				if w := int(time.Since(start) / reloadPeriod); w < len(perWindow) {
					perWindow[w].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	g.next += int(next.Load())
	for i := range perWindow {
		c.windowRPS = append(c.windowRPS, float64(perWindow[i].Load())/reloadPeriod.Seconds())
	}
	c.ok += okN.Load()
	c.failed += badN.Load()
	c.seconds += time.Since(start).Seconds()
}

// reloader hot-reloads the server every period, alternating the two
// checkpoints, and remembers which weights each model version serves.
type reloader struct {
	srv     *columnsgd.Server
	paths   [2]string
	weights [2][]float64
	split   bool // traced run: every other pair of reloads calls LoadModel and LoadWeights separately

	mu        sync.Mutex
	byVersion map[int64][]float64
	samples   []reloadSample
	attempted int64
	failed    int64
	errs      []string
}

// reloadSample is one successful reload.
type reloadSample struct {
	at                         time.Time
	split                      bool
	totalMs, loadMs, installMs float64 // load and install only when split
}

func (r *reloader) reload(k int) {
	file := k % 2
	path := r.paths[file]
	smp := reloadSample{at: time.Now(), split: r.split && k%4 >= 2}
	var v int64
	var err error
	if smp.split {
		var rows [][]float64
		rows, err = columnsgd.LoadModel(path)
		t1 := time.Now()
		if err == nil {
			v, err = r.srv.LoadWeights(rows)
		}
		smp.loadMs, smp.installMs = ms(t1.Sub(smp.at)), ms(time.Since(t1))
	} else {
		v, err = r.srv.LoadModelFile(path)
	}
	smp.totalMs = ms(time.Since(smp.at))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
		return
	}
	r.byVersion[v] = r.weights[file]
	r.samples = append(r.samples, smp)
}

// stretch is a part [from, to) of the run.
type stretch struct{ from, to time.Time }

// during returns the reloads that started within one of spans, split or
// not; pick selects the duration.
func (r *reloader) during(spans []stretch, split bool, pick func(reloadSample) float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.samples {
		for _, sp := range spans {
			if s.split == split && !s.at.Before(sp.from) && s.at.Before(sp.to) {
				out = append(out, pick(s))
			}
		}
	}
	return out
}

func total(s reloadSample) float64   { return s.totalMs }
func load(s reloadSample) float64    { return s.loadMs }
func install(s reloadSample) float64 { return s.installMs }

// run reloads every period until stop is closed, then returns.
func (r *reloader) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(reloadPeriod)
	defer t.Stop()
	for k := 1; ; k++ {
		select {
		case <-stop:
			return
		case <-t.C:
			r.reload(k)
		}
	}
}

func runServeReload(o options, rep *report) error {
	rng := rand.New(rand.NewSource(o.seed))
	var weights [2][]float64
	var paths [2]string
	for f := range weights {
		w := make([]float64, serveFeatures)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.1
		}
		weights[f] = w
		paths[f] = filepath.Join(o.scratch, fmt.Sprintf("model-%d.bin", f))
		if err := columnsgd.SaveWeights(paths[f], [][]float64{w}); err != nil {
			return err
		}
	}
	rows := make([]columnsgd.SparseVector, requestPool)
	bodies := make([][]byte, requestPool)
	for i := range rows {
		seen := make(map[int32]bool, serveNNZ)
		ind := make([]int32, 0, serveNNZ)
		for len(ind) < serveNNZ {
			j := int32(rng.Intn(serveFeatures))
			if !seen[j] {
				seen[j] = true
				ind = append(ind, j)
			}
		}
		sort.Slice(ind, func(a, b int) bool { return ind[a] < ind[b] })
		val := make([]float64, serveNNZ)
		for k := range val {
			val[k] = rng.Float64()
		}
		rows[i] = columnsgd.SparseVector{Indices: ind, Values: val}
		b, err := json.Marshal(predictBody{Instances: []instance{{ind, val}}})
		if err != nil {
			return err
		}
		bodies[i] = b
	}

	// Set-up: NewServer plus the first LoadModelFile, as colsgd-serve.
	var srv *columnsgd.Server
	var setupS []float64
	var firstVersion int64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.Close()
			runtime.GC()
		}
		t0 := time.Now()
		s, err := columnsgd.NewServer(serveConfig)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return err
		}
		v, err := s.LoadModelFile(paths[0])
		d := time.Since(t0)
		srv = s
		if err != nil {
			rep.Failed++
			srv.Close()
			return err
		}
		firstVersion = v
		setupS = append(setupS, d.Seconds())
	}
	defer srv.Close()
	runtime.GC()

	g := &loadgen{h: srv.Handler(), bodies: bodies}
	warm := g.phase(baseRate, 500*time.Millisecond) // warm-up: counted, not timed
	phases := []phaseResult{warm}

	rl := &reloader{srv: srv, paths: paths, weights: weights, split: o.trace,
		byVersion: map[int64][]float64{firstVersion: weights[0]}}
	stop, done := make(chan struct{}), make(chan struct{})
	go rl.run(stop, done)

	// The base phase (half the run) and the capacity phase (two fifths)
	// alternate in slices. The traced run's histogram figures come from
	// Server.Metrics() after the first base slice, before any capacity
	// traffic has reached the histograms.
	measured := time.Duration(o.seconds) * time.Second
	var base, firstBase phaseResult
	var baseSpans []stretch
	var first columnsgd.ServeMetrics
	var gcPauseNs, allocBytes uint64
	var fanoutBytes, baseRequests int64
	var sat capacity
	for k := range slices {
		var ms0, ms1 runtime.MemStats
		m0 := srv.Metrics()
		runtime.ReadMemStats(&ms0)
		from := time.Now()
		b := g.phase(baseRate, measured/2/slices)
		baseSpans = append(baseSpans, stretch{from, time.Now()})
		runtime.ReadMemStats(&ms1)
		m1 := srv.Metrics()
		if k == 0 {
			first, firstBase = m1, b
		}
		base.add(b)
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		fanoutBytes += m1.FanoutBytes - m0.FanoutBytes
		baseRequests += m1.Requests - m0.Requests
		g.saturate(&sat, satClients, measured*2/5/slices)
	}
	baseS := 0.0
	for _, sp := range baseSpans {
		baseS += sp.to.Sub(sp.from).Seconds()
	}
	phases = append(phases, base)
	best := -1
	if base.passed() {
		best = 0
		for k, rate := 1, 2*baseRate; k <= rateSteps; k, rate = k+1, 2*rate {
			r := g.phase(rate, measured/20)
			phases = append(phases, r)
			if !r.passed() {
				break
			}
			best = k
		}
	}
	satRPS := median(sat.windowRPS)
	rep.Attempted += sat.ok + sat.failed
	rep.Failed += sat.failed
	close(stop)
	<-done
	mEnd := srv.Metrics()
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}

	// Accounting and output checks.
	for _, p := range phases {
		rep.Attempted += int64(p.sent)
		rep.Failed += p.failed
	}
	rep.Attempted += rl.attempted
	rep.Failed += rl.failed
	for _, e := range rl.errs {
		rep.checks = append(rep.checks, "reload: "+e)
	}
	checkServed(rep, g.samples, rows, rl.byVersion)
	reloadMs := rl.during(baseSpans, false, total)
	if len(reloadMs) == 0 {
		rep.fail("no hot reload completed during the base phase")
	}
	maxRPS, maxNote := 0.0, "no step met the limit"
	if best >= 0 {
		p := phases[1+best]
		maxRPS, maxNote = float64(p.sent)/p.spanS, fmt.Sprintf("achieved at the %d req/s step, the highest meeting the limit", p.rate)
	}
	tail := tailPct(len(base.latMs))
	nBase := float64(max(len(base.latMs), 1))
	wire := float64(fanoutBytes) / float64(max(baseRequests, 1))

	if !o.trace {
		rep.set("setup_s", "s", median(setupS))
		rep.set("samples_per_s", "1/s", satRPS)
		rep.set("op_p50_ms", "ms", median(base.latMs))
		rep.set("time_to_model_s", "s", median(reloadMs)/1000)
		rep.set("wire_bytes_per_op", "B", wire)
		rep.set("peak_rss_mb", "MB", rss)
		rep.show("setup_s", "s", median(setupS), fmt.Sprintf("median of %d NewServer+LoadModelFile", len(setupS)))
		rep.na("round_p50_ms", "round_p99_ms", "time_to_loss_s", "final_loss")
		rep.show("samples_per_s", "1/s", satRPS, fmt.Sprintf("capacity: %d closed-loop callers; median of %d windows of %v in %d slices",
			satClients, len(sat.windowRPS), reloadPeriod, slices))
		rep.show("samples_per_s_whole", "1/s", float64(sat.ok)/sat.seconds, "the whole capacity phase, not gated")
		rep.show("wire_bytes_per_round", "B", wire, "wire_bytes_per_op: modeled shard fan-out bytes per request")
		rep.show("peak_rss_mb", "MB", rss, "VmHWM")
		rep.show("serve_p50_ms", "ms", median(base.latMs), fmt.Sprintf("op_p50_ms; %d requests at %d req/s", len(base.latMs), baseRate))
		rep.show("serve_p99_ms", "ms", pct(base.latMs, tail), fmt.Sprintf("%s, not gated: see README", fmtPct(tail)))
		for _, p := range phases[1:] {
			verdict := "meets"
			if !p.passed() {
				verdict = "misses"
			}
			rep.show(fmt.Sprintf("rate_%d_p99_ms", p.rate), "ms", pct(p.latMs, 99),
				fmt.Sprintf("%s the limit; lag p99 %.3g ms, backlog %d, failed %d, aborted %v",
					verdict, pct(p.lagMs, 99), p.backlogEnd, p.failed, p.aborted))
		}
		rep.show("serve_max_rps", "1/s", maxRPS, maxNote)
		rep.show("reload_p50_ms", "ms", median(reloadMs), fmt.Sprintf("time_to_model_s; %d reloads under the base rate", len(reloadMs)))
		return nil
	}

	lay := newLayers(rep)
	lay.add("serve.queue_p99_ms", "ms", first.QueueP99Micros/1000, true)
	lay.add("serve.score_p99_ms", "ms", first.ScoreP99Micros/1000, true)
	lay.add("serve.batch_mean", "count", first.BatchMean, true)
	lay.add("serve.frontend_self_p50_ms", "ms", median(firstBase.dispMs)-first.QueueP50Micros/1000-first.ScoreP50Micros/1000, true)
	lay.add("persist.load_p50_ms", "ms", median(rl.during(baseSpans, true, load)), true)
	lay.add("serve.install_p50_ms", "ms", median(rl.during(baseSpans, true, install)), true)
	lay.add("serve.rejected", "count", float64(mEnd.Rejected+mEnd.Overloaded), true)
	lay.add("serve.errors", "count", float64(mEnd.Errors), true)
	lay.add("serve.shard_retries", "count", float64(mEnd.ShardRetries), true)
	lay.add("loadgen.lag_p99_ms", "ms", pct(base.lagMs, 99), true)
	lay.add("runtime.gc_pause_ms_per_s", "ms/s", float64(gcPauseNs)/1e6/baseS, true)
	lay.add("runtime.alloc_mb_per_op", "MB", float64(allocBytes)/(1<<20)/nBase, true)
	overhead := 0.0
	if splitMs := rl.during(baseSpans, true, total); len(splitMs) > 0 && len(reloadMs) > 0 {
		overhead = (median(splitMs)/median(reloadMs) - 1) * 100
	}
	lay.add("trace.overhead_pct", "%", overhead, true)
	lay.finish()
	return nil
}

// checkServed compares each sampled response with a direct dot product
// against the weights its model version serves: margins may differ by
// summation-order rounding, labels not at all.
func checkServed(rep *report, samples []served, rows []columnsgd.SparseVector, byVersion map[int64][]float64) {
	if len(samples) == 0 {
		rep.fail("no response was checked")
	}
	for _, s := range samples {
		w, ok := byVersion[s.version]
		if !ok {
			rep.fail("response names model version %d, which was never installed", s.version)
			continue
		}
		x := rows[s.req]
		dot, mag := 0.0, 0.0
		for k, j := range x.Indices {
			dot += w[j] * x.Values[k]
			mag += math.Abs(w[j] * x.Values[k])
		}
		tol := 4 * float64(len(x.Indices)) * 0x1p-53 * mag
		if math.Abs(s.margin-dot) > tol {
			rep.fail("request %d version %d: margin %v, direct dot product %v", s.req, s.version, s.margin, dot)
			continue
		}
		want := 1.0
		if s.margin < 0 {
			want = -1
		}
		if s.label != want || (math.Abs(dot) > tol && (dot >= 0) != (s.label > 0)) {
			rep.fail("request %d version %d: label %v for margin %v (direct %v)", s.req, s.version, s.label, s.margin, dot)
		}
	}
}
