package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"columnsgd"
	"columnsgd/internal/cluster"
	"columnsgd/internal/core"
	"columnsgd/internal/dataset"
	"columnsgd/internal/opt"
	"columnsgd/internal/rowsgd"
	"columnsgd/internal/simnet"
	"columnsgd/internal/wire"
)

// trainSpec is one training workload. Shapes are sized for a 2-CPU host:
// two workers, each computing inline (Parallelism 1).
type trainSpec struct {
	rows, features, nnz int
	skew                float64
	population          int64 // fixes the problem the seed samples from (see population)
	batch               int
	lr                  float64
	ps                  bool // rowsgd MXNet sparse-pull parameter server instead of ColumnSGD
	tcp                 bool // workers behind cluster.NewServer on loopback instead of in-process
	pipeline            bool
	// rounds is the fixed round count final_loss is taken at; the loop
	// keeps stepping after it until --seconds have passed, so latency and
	// throughput always rest on at least rounds samples.
	rounds    int
	evalEvery int
	// target is the full-training loss time_to_model_s waits for, chosen
	// so the parent revision reaches it about halfway through rounds.
	target    float64
	setupReps int
	// block is how many rounds the traced run keeps tracing on, then off,
	// alternately, to measure its own overhead.
	block int
}

const trainWorkers = 2

var (
	tcpNarrow = trainSpec{population: 1, rows: 100000, features: 4096, nnz: 16, batch: 512, lr: 0.5,
		tcp: true, pipeline: true, rounds: 12000, evalEvery: 500, target: 0.2484, setupReps: 3, block: 50}
	lrWide = trainSpec{population: 2, rows: 100000, features: 1000000, nnz: 32, skew: 1, batch: 1000, lr: 0.5,
		pipeline: true, rounds: 160, evalEvery: 20, target: 0.6038, setupReps: 3, block: 10}
	psWide = trainSpec{population: 2, rows: 100000, features: 1000000, nnz: 32, skew: 1, batch: 1000, lr: 0.5,
		ps: true, rounds: 880, evalEvery: 40, target: 0.5447, setupReps: 3, block: 20}
)

func runTCPNarrow(o options, rep *report) error { return runTraining(o, rep, tcpNarrow) }
func runLRWide(o options, rep *report) error    { return runTraining(o, rep, lrWide) }
func runPSWide(o options, rep *report) error    { return runTraining(o, rep, psWide) }

// session is one loaded training job, engine-agnostic.
type session struct {
	step     func() error
	fullLoss func() (float64, error)
	export   func() ([][]float64, error)
	clients  []cluster.Client
	counters func() (retries, restarts int64)
	close    func()
}

func (s *session) bytes() int64 {
	var n int64
	for _, c := range s.clients {
		n += c.Bytes()
	}
	return n
}

var (
	coreMethods = []string{core.MethodInit, core.MethodLoad, core.MethodLoadDone, core.MethodComputeStats,
		core.MethodUpdate, core.MethodEvalStats, core.MethodEvalLoss, core.MethodEvalAccuracy,
		core.MethodGetParams, core.MethodSetParams, core.MethodResetPartition, core.MethodExportState,
		core.MethodImportState, core.MethodPing, core.MethodFailNext, core.MethodSolverUpdate,
		core.MethodSolverGrad, core.MethodSolverDir, core.MethodSolverLine, core.MethodSolverApply}
	rowMethods = []string{rowsgd.MethodInit, rowsgd.MethodLoadRows, rowsgd.MethodLoadDone,
		rowsgd.MethodComputeGrad, rowsgd.MethodNeededDims, rowsgd.MethodSparseGrad, rowsgd.MethodLocalTrain,
		rowsgd.MethodSetModel, rowsgd.MethodGetModel, rowsgd.MethodEvalLoss, rowsgd.MethodExportState,
		rowsgd.MethodImportState, rowsgd.MethodLocalDelta, rowsgd.MethodFullGrad, rowsgd.MethodLineProbe}
)

// coreConfig is the core.Config columnsgd.NewTrainer derives for an LR/SGD
// job with these settings; the package tests hold the two bit-identical.
func (s trainSpec) coreConfig(seed int64) core.Config {
	return core.Config{
		Workers:            trainWorkers,
		ModelName:          string(columnsgd.LogisticRegression),
		Opt:                opt.Config{Algo: string(columnsgd.SGD), LR: s.lr},
		BatchSize:          s.batch,
		Seed:               seed,
		Net:                simnet.Cluster1().WithWorkers(trainWorkers),
		ComputeParallelism: 1,
		Pipeline:           s.pipeline,
	}
}

// tracedProvider hands the engine timed clients over another provider.
type tracedProvider struct {
	inner   core.Provider
	rec     *recorder
	clients []cluster.Client
}

func (p *tracedProvider) Clients() []cluster.Client {
	if p.clients == nil {
		p.clients = wrapClients(p.rec, p.inner.Clients())
	}
	return p.clients
}

// Restart restarts the worker and swaps its client in place, as the
// engine's round driver holds this slice.
func (p *tracedProvider) Restart(w int) error {
	if err := p.inner.Restart(w); err != nil {
		return err
	}
	p.clients[w] = &tracedClient{Client: p.inner.Clients()[w], rec: p.rec, worker: w}
	return nil
}

// startSession is the set-up setup_s times: parse the LibSVM file, start
// the workers and load the data into them — what colsgd-train does. A
// non-nil rec wraps every client and worker service.
func startSession(s trainSpec, path string, seed int64, rec *recorder) (*session, error) {
	ds, err := dataset.LoadLibSVMFile(path, s.features)
	if err != nil {
		return nil, err
	}
	if s.ps {
		return startRowSession(s, ds, seed, rec)
	}
	sess := &session{close: func() {}}
	var prov core.Provider
	switch {
	case s.tcp:
		addrs := make([]string, trainWorkers)
		var stops []func()
		for w := range addrs {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, stop := range stops {
					stop()
				}
				return nil, err
			}
			svc := core.NewWorkerService()
			if rec != nil {
				svc = tracedService(rec, w, svc, coreMethods)
			}
			srv := cluster.NewServer(svc, lis)
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = srv.Serve() // returns nil once Close stops the listener
			}()
			stops = append(stops, func() { srv.Close(); <-done })
			addrs[w] = srv.Addr()
		}
		stopServers := func() {
			for _, stop := range stops {
				stop()
			}
		}
		rp, err := core.NewRemoteProviderCodec(addrs, wire.Default)
		if err != nil {
			stopServers()
			return nil, err
		}
		sess.close = func() { rp.Close(); stopServers() }
		prov = rp
	case rec != nil:
		local, err := cluster.NewLocalCodec(trainWorkers, func(w int) (*cluster.Service, error) {
			return tracedService(rec, w, core.NewWorkerService(), coreMethods), nil
		}, wire.Default)
		if err != nil {
			return nil, err
		}
		prov = local
	default:
		if prov, err = core.NewLocalProviderCodec(trainWorkers, wire.Default); err != nil {
			return nil, err
		}
	}
	if rec != nil {
		prov = &tracedProvider{inner: prov, rec: rec}
	}
	eng, err := core.NewEngine(s.coreConfig(seed), prov)
	if err == nil {
		err = eng.Load(ds)
	}
	if err != nil {
		sess.close()
		return nil, err
	}
	sess.step = func() error { _, err := eng.Step(); return err }
	sess.fullLoss = eng.FullLoss
	sess.export = func() ([][]float64, error) {
		p, err := eng.ExportModel()
		if err != nil {
			return nil, err
		}
		return p.W, nil
	}
	sess.clients = prov.Clients()
	sess.counters = func() (int64, int64) { return eng.Retries(), eng.Restarts() }
	return sess, nil
}

func startRowSession(s trainSpec, ds *dataset.Dataset, seed int64, rec *recorder) (*session, error) {
	local, err := cluster.NewLocalCodec(trainWorkers, func(w int) (*cluster.Service, error) {
		svc := rowsgd.NewWorkerService()
		if rec != nil {
			svc = tracedService(rec, w, svc, rowMethods)
		}
		return svc, nil
	}, wire.Default)
	if err != nil {
		return nil, err
	}
	clients := local.Clients()
	if rec != nil {
		clients = wrapClients(rec, clients)
	}
	eng, err := rowsgd.NewEngine(rowsgd.Config{
		System:      rowsgd.MXNet,
		Workers:     trainWorkers,
		ModelName:   string(columnsgd.LogisticRegression),
		Opt:         opt.Config{Algo: string(columnsgd.SGD), LR: s.lr},
		BatchSize:   s.batch,
		Seed:        seed,
		Parallelism: 1,
		Net:         simnet.Cluster1().WithWorkers(trainWorkers),
	}, clients)
	if err == nil {
		err = eng.Load(ds)
	}
	if err != nil {
		return nil, err
	}
	return &session{
		step:     func() error { _, err := eng.Step(); return err },
		fullLoss: eng.FullLoss,
		export: func() ([][]float64, error) {
			p, err := eng.ExportModel()
			if err != nil {
				return nil, err
			}
			return p.W, nil
		},
		clients:  clients,
		counters: func() (int64, int64) { return eng.Retries(), eng.Restarts() },
		close:    func() {},
	}, nil
}

// setupSample is one traced set-up: wire bytes, the wall time its worker
// calls cover, and the master's own time (parse plus dispatch).
type setupSample struct {
	bytes        float64
	callS, selfS float64
	consistent   bool // call coverage plus self time equals the wall time
}

// setUp starts the session setupReps times, keeping the last, and
// returns every set-up's wall time (and, traced, its split).
func setUp(s trainSpec, path string, seed int64, rec *recorder, rep *report) (*session, []float64, []setupSample, error) {
	var sess *session
	var wall []float64
	var traced []setupSample
	for i := 0; i < s.setupReps; i++ {
		if sess != nil {
			sess.close()
			runtime.GC()
		}
		var a0 int64
		if rec != nil {
			rec.take()
			a0 = rec.now()
		}
		t0 := time.Now()
		var err error
		sess, err = startSession(s, path, seed, rec)
		d := time.Since(t0)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		wall = append(wall, d.Seconds())
		if rec != nil {
			a1 := rec.now()
			var ivs []interval
			for _, sp := range rec.take() {
				if !sp.handler {
					ivs = append(ivs, interval{sp.a, sp.b})
				}
			}
			covered, gaps := coverage(ivs, a0, a1)
			traced = append(traced, setupSample{bytes: float64(sess.bytes()), callS: float64(covered) / 1e9,
				selfS: float64(gaps) / 1e9, consistent: covered+gaps == a1-a0})
		}
	}
	return sess, wall, traced, nil
}

// loopResult is what the round loop measured.
type loopResult struct {
	rounds      int
	stepMs      []float64
	stepTotal   time.Duration
	steps       []interval // run-clock intervals (traced run)
	tracedRound []bool
	evalMs      []float64
	ttmWall     float64 // wall time to the target, shown but not gated
	ttmRound    int     // first evaluation at or below the target
	crossRound  float64 // interpolated round at which the loss crossed the target
	finalLoss   float64
	wire        float64 // bytes per round, evaluations excluded
	loopS       float64
	mem0, mem1  runtime.MemStats
}

// trainLoop steps the session for s.rounds rounds, evaluating the full
// loss every s.evalEvery, then keeps stepping until seconds have passed.
// A traced run alternates blocks of traced and untraced rounds.
func trainLoop(s trainSpec, sess *session, seconds int, rec *recorder, rep *report) loopResult {
	res := loopResult{ttmWall: -1, crossRound: -1, finalLoss: math.NaN()}
	var evalBytes int64
	prevT, prevLoss := 0.0, math.NaN() // the previous evaluation
	bytes0 := sess.bytes()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	loopStart := time.Now()
	runtime.ReadMemStats(&res.mem0)
	for r := 1; r <= s.rounds || time.Now().Before(deadline); r++ {
		traced := rec != nil && (r/s.block)%2 == 0
		var a int64
		if rec != nil {
			rec.on.Store(traced)
			a = rec.now()
		}
		t0 := time.Now()
		err := sess.step()
		d := time.Since(t0)
		rep.Attempted++
		if err != nil {
			rep.fail("round %d failed: %v", r, err)
			break
		}
		res.rounds = r
		res.stepTotal += d
		res.stepMs = append(res.stepMs, ms(d))
		if rec != nil {
			res.steps = append(res.steps, interval{a, rec.now()})
			res.tracedRound = append(res.tracedRound, traced)
		}
		if r > s.rounds || r%s.evalEvery != 0 {
			continue
		}
		if rec != nil {
			rec.on.Store(false)
		}
		b0 := sess.bytes()
		t0 = time.Now()
		loss, err := sess.fullLoss()
		res.evalMs = append(res.evalMs, ms(time.Since(t0)))
		evalBytes += sess.bytes() - b0
		rep.Attempted++
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			rep.fail("full loss at round %d: %v (err %v)", r, loss, err)
			continue
		}
		now := time.Since(loopStart).Seconds()
		if res.ttmWall < 0 && loss <= s.target {
			// The loss crossed the target since the previous evaluation:
			// interpolate, so the time does not jump by a whole evaluation
			// interval when a seed's loss lands just either side of it.
			res.ttmWall, res.ttmRound, res.crossRound = now, r, float64(r)
			if prevLoss > s.target {
				frac := (prevLoss - s.target) / (prevLoss - loss)
				res.ttmWall = prevT + (now-prevT)*frac
				res.crossRound = float64(r-s.evalEvery) + float64(s.evalEvery)*frac
			}
		}
		prevT, prevLoss = now, loss
		if r == s.rounds {
			res.finalLoss = loss
		}
	}
	res.loopS = time.Since(loopStart).Seconds()
	runtime.ReadMemStats(&res.mem1)
	if rec != nil {
		rec.on.Store(false)
	}
	res.wire = float64(sess.bytes()-bytes0-evalBytes) / float64(max(res.rounds, 1))
	return res
}

func runTraining(o options, rep *report, s trainSpec) error {
	path, err := writeTrainingData(s, o.seed, o.scratch)
	if err != nil {
		return fmt.Errorf("generate data: %w", err)
	}
	runtime.GC()
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		rec.on.Store(true)
	}
	sess, setupS, setups, err := setUp(s, path, o.seed, rec, rep)
	if err != nil {
		return err
	}
	defer sess.close()
	runtime.GC()

	lr := trainLoop(s, sess, o.seconds, rec, rep)
	if !(lr.finalLoss <= s.target) { // also catches NaN
		rep.fail("final_loss %v after %d rounds is not below the target %v", lr.finalLoss, s.rounds, s.target)
	}
	if lr.crossRound < 0 {
		// Never reached: report the whole loop; the check above fails.
		lr.ttmWall, lr.crossRound = lr.loopS, float64(lr.rounds)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}

	if !o.trace {
		roundS := blockRoundS(lr.stepMs)
		evalS := median(lr.evalMs) / 1000
		sps := float64(s.batch) / roundS
		ttm := lr.crossRound * (roundS + evalS/float64(s.evalEvery))
		tail := tailPct(len(lr.stepMs))
		rep.set("setup_s", "s", median(setupS))
		rep.set("samples_per_s", "1/s", sps)
		rep.set("op_p50_ms", "ms", median(lr.stepMs))
		rep.set("time_to_model_s", "s", ttm)
		rep.set("wire_bytes_per_op", "B", lr.wire)
		rep.set("peak_rss_mb", "MB", rss)
		rep.show("setup_s", "s", median(setupS), fmt.Sprintf("median of %d set-ups", len(setupS)))
		rep.show("samples_per_s", "1/s", sps, fmt.Sprintf("batch %d / median over %d blocks of mean Step time; %d rounds",
			s.batch, min(roundBlocks, lr.rounds), lr.rounds))
		rep.show("samples_per_s_wall", "1/s", float64(lr.rounds*s.batch)/lr.stepTotal.Seconds(), "all rounds / all Step time, not gated")
		rep.show("round_p50_ms", "ms", median(lr.stepMs), fmt.Sprintf("op_p50_ms; %d rounds", len(lr.stepMs)))
		rep.show("round_p99_ms", "ms", pct(lr.stepMs, tail), fmt.Sprintf("%s, not gated: see README", fmtPct(tail)))
		rep.show("time_to_loss_s", "s", ttm, fmt.Sprintf("time_to_model_s; target %v crossed at round %.1f (first evaluated below at %d), eval every %d rounds, eval p50 %.2f ms",
			s.target, lr.crossRound, lr.ttmRound, s.evalEvery, evalS*1000))
		rep.show("time_to_loss_wall_s", "s", lr.ttmWall, "the same crossing on the run's own clock, not gated")
		rep.show("final_loss", "loss", lr.finalLoss, fmt.Sprintf("after %d rounds", s.rounds))
		rep.show("wire_bytes_per_round", "B", lr.wire, "wire_bytes_per_op")
		rep.show("peak_rss_mb", "MB", rss, "VmHWM")
		rep.na("serve_p50_ms", "serve_p99_ms", "serve_max_rps", "reload_p50_ms")
		return nil
	}

	// Traced run: per-layer metrics from the spans of traced rounds.
	an := analyzeRounds(rec.take(), lr.steps, lr.tracedRound)
	if an.badRounds > 0 {
		rep.fail("%d traced rounds: master self time plus child call coverage != Step wall time", an.badRounds)
	}
	var sBytes, sCall, sSelf []float64
	for _, st := range setups {
		if !st.consistent {
			rep.fail("set-up: self time plus call coverage != set-up wall time")
		}
		sBytes = append(sBytes, st.bytes)
		sCall = append(sCall, st.callS)
		sSelf = append(sSelf, st.selfS)
	}
	retries, restarts := sess.counters()
	isCore := !s.ps
	lay := newLayers(rep)
	lay.add("core.worker.update_p50_ms", "ms", median(an.handler[core.MethodUpdate]), isCore)
	lay.add("core.worker.compute_stats_p50_ms", "ms", median(an.handler[core.MethodComputeStats]), isCore)
	lay.add("core.master.self_p50_ms", "ms", median(an.selfMs), isCore)
	lay.add("core.master.setup_self_s", "s", median(sSelf), isCore)
	lay.add("core.eval_p50_ms", "ms", median(lr.evalMs), isCore)
	lay.add("rowsgd.worker.neededDims_p50_ms", "ms", median(an.handler[rowsgd.MethodNeededDims]), s.ps)
	lay.add("rowsgd.worker.computeGradSparse_p50_ms", "ms", median(an.handler[rowsgd.MethodSparseGrad]), s.ps)
	lay.add("rowsgd.master.self_p50_ms", "ms", median(an.selfMs), s.ps)
	lay.add("rowsgd.master.setup_self_s", "s", median(sSelf), s.ps)
	lay.add("rowsgd.eval_p50_ms", "ms", median(lr.evalMs), s.ps)
	lay.add("cluster.transport_p50_ms", "ms", median(an.transportMs), true)
	lay.add("cluster.calls_per_round", "count", an.callsPerRound, true)
	lay.add("cluster.setup_bytes", "B", median(sBytes), true)
	lay.add("cluster.setup_call_s", "s", median(sCall), true)
	lay.add("driver.fanout_skew_p99_ms", "ms", pct(an.skewMs, 99), true)
	lay.add("driver.retries", "count", float64(retries), true)
	lay.add("driver.restarts", "count", float64(restarts), true)
	lay.add("runtime.gc_pause_ms_per_s", "ms/s", float64(lr.mem1.PauseTotalNs-lr.mem0.PauseTotalNs)/1e6/lr.loopS, true)
	lay.add("runtime.alloc_mb_per_op", "MB", float64(lr.mem1.TotalAlloc-lr.mem0.TotalAlloc)/(1<<20)/float64(max(lr.rounds, 1)), true)
	lay.add("trace.overhead_pct", "%", overheadPct(lr.stepMs, lr.tracedRound), true)
	lay.finish()
	return nil
}

// roundBlocks is how many contiguous blocks of rounds blockRoundS splits
// a run into.
const roundBlocks = 32

// blockRoundS is the per-round time in seconds that samples_per_s and
// time_to_model_s rest on: the rounds are split into roundBlocks
// contiguous blocks, and the median of the blocks' mean Step times is
// taken. A block's mean counts every round in it, slow ones too; the
// median keeps a stall of the shared host that hits one block from
// moving the figure.
func blockRoundS(stepMs []float64) float64 {
	n := len(stepMs)
	k := min(roundBlocks, n)
	means := make([]float64, 0, k)
	for b := 0; b < k; b++ {
		lo, hi := b*n/k, (b+1)*n/k
		sum := 0.0
		for _, x := range stepMs[lo:hi] {
			sum += x
		}
		means = append(means, sum/float64(hi-lo))
	}
	return median(means) / 1000
}

// roundAnalysis is what the traced run derives from its spans.
type roundAnalysis struct {
	handler       map[string][]float64 // worker-side dispatch times by method, ms
	selfMs        []float64            // Step wall time minus the union of its calls
	transportMs   []float64
	skewMs        []float64
	callsPerRound float64
	badRounds     int
}

// overheadPct compares the median Step time of traced and untraced rounds.
func overheadPct(stepMs []float64, traced []bool) float64 {
	var on, off []float64
	for i, t := range stepMs {
		if traced[i] {
			on = append(on, t)
		} else {
			off = append(off, t)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return (median(on)/median(off) - 1) * 100
}

// analyzeRounds attributes spans to the rounds whose tracing was on. The
// first round of each traced block is skipped: its pipelined prefetch
// started while tracing was off, so its call coverage is incomplete.
func analyzeRounds(spans []span, steps []interval, traced []bool) *roundAnalysis {
	an := &roundAnalysis{handler: map[string][]float64{}}
	var calls []span
	for _, s := range spans {
		if s.handler {
			an.handler[s.method] = append(an.handler[s.method], float64(s.b-s.a)/1e6)
		} else {
			calls = append(calls, s)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].a < calls[j].a })
	an.transportMs = transportTimes(spans)
	nCalls, nRounds := 0, 0
	for i, st := range steps {
		if !traced[i] || i == 0 || !traced[i-1] {
			continue
		}
		lo := steps[i-1].a
		first := sort.Search(len(calls), func(k int) bool { return calls[k].a >= lo })
		var ivs []interval
		groups := map[string][]int64{}
		for k := first; k < len(calls) && calls[k].a < st.b; k++ {
			c := calls[k]
			if c.b <= st.a {
				continue
			}
			ivs = append(ivs, interval{c.a, c.b})
			if c.a >= st.a {
				nCalls++
				groups[c.method] = append(groups[c.method], c.b)
			}
		}
		covered, gaps := coverage(ivs, st.a, st.b)
		if covered+gaps != st.b-st.a {
			an.badRounds++
		}
		an.selfMs = append(an.selfMs, float64(gaps)/1e6)
		for _, ends := range groups {
			if len(ends) < 2 {
				continue
			}
			lo, hi := ends[0], ends[0]
			for _, e := range ends {
				lo, hi = min(lo, e), max(hi, e)
			}
			an.skewMs = append(an.skewMs, float64(hi-lo)/1e6)
		}
		nRounds++
	}
	if nRounds > 0 {
		an.callsPerRound = float64(nCalls) / float64(nRounds)
	}
	return an
}
