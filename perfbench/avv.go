package main

import (
	"fmt"
	"io"
	"time"

	"repro"
	"repro/internal/mpi"
	"repro/internal/subkmer"
)

// avvSpec is one all-vs-all workload: the input generator and the
// pipeline configuration of its builds.
type avvSpec struct {
	ranks  int
	inputs int  // inputs a run generates and cycles through
	tcp    bool // build over loopback tcp (mpi.RunTCPLocal + pastis.RunRank)
	input  func(seed int64, size string) ([]pastis.Record, error)
	cfg    pastis.Config // reference build configuration (shared transport)
}

// avvExactXD pushes the work into alignment: exact k-mers with threshold
// 1 hand the x-drop kernel every pair that shares a k-mer.
var avvExactXD = avvSpec{
	ranks:  4,
	inputs: 8,
	input:  metaclustInput,
	cfg: func() pastis.Config {
		cfg := pastis.DefaultConfig()
		cfg.CommonKmerThreshold = 1
		cfg.Align = pastis.AlignXDrop
		cfg.Blocks = 1
		cfg.Threads = 1
		return cfg
	}(),
}

// avvSubsTCP pushes the work into the sparse-matrix and communication
// layers: substitute k-mers, a common-k-mer prune, the cheap ungapped
// kernel and four waves over the tcp transport.
var avvSubsTCP = avvSpec{
	ranks:  4,
	inputs: 3,
	tcp:    true,
	input:  scopeInput,
	cfg: func() pastis.Config {
		cfg := pastis.DefaultConfig()
		cfg.SubstituteKmers = 10
		cfg.CommonKmerThreshold = 3
		cfg.Align = pastis.AlignUngapped
		cfg.Blocks = 4
		cfg.Threads = 1
		return cfg
	}(),
}

// buildOut is one build's result plus the tcp transport's counters.
type buildOut struct {
	res *pastis.Result
	tcp mpi.TCPStats
}

// build runs one PSG build with cfg, over tcp when the spec says so.
func (s avvSpec) build(recs []pastis.Record, cfg pastis.Config) (buildOut, error) {
	if !s.tcp {
		res, err := pastis.BuildGraph(recs, s.ranks, cfg)
		return buildOut{res: res}, err
	}
	cfg.Transport = "tcp"
	clusters := make([]*mpi.Cluster, s.ranks)
	var out buildOut
	err := mpi.RunTCPLocal(s.ranks, pastis.DefaultCostModel(), func(rank int, cl *mpi.Cluster) {
		clusters[rank] = cl
	}, func(c *mpi.Comm) error {
		res, err := pastis.RunRank(c, recs, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out.res = res
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	for _, cl := range clusters {
		st, ok := cl.TCPStats()
		if !ok {
			return out, fmt.Errorf("cluster without tcp stats")
		}
		out.tcp.CommWall += st.CommWall
		out.tcp.FramesSent += st.FramesSent
		out.tcp.BytesSent += st.BytesSent
	}
	return out, nil
}

// avvInput is one generated input with its reference build.
type avvInput struct {
	recs []pastis.Record
	ref  *pastis.Result
	want digest
}

// runAVV measures repeated all-vs-all builds of spec.inputs generated
// inputs, cycling through them.
func runAVV(o options, spec avvSpec, log io.Writer) (*report, error) {
	tr := newTracer()
	rep := &report{Metrics: metrics{}}

	// Set-up, once per input: generate it and build its reference PSG on
	// the shared transport.
	var inputs []avvInput
	var setup []float64
	for i := 0; i < spec.inputs; i++ {
		t0 := time.Now()
		recs, err := spec.input(inputSeed(o.seed, i), o.size)
		if err != nil {
			return nil, err
		}
		ref, err := pastis.BuildGraph(recs, spec.ranks, spec.cfg)
		if err != nil {
			return nil, fmt.Errorf("reference build: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		in := avvInput{recs: recs, ref: ref, want: edgeDigest(ref.Edges)}
		inputs = append(inputs, in)
		fmt.Fprintf(log, "%s input %d: %d sequences, reference PSG %v\n", o.workload, i, len(recs), in.want)
	}
	wants := make([]digest, len(inputs))
	for i, in := range inputs {
		wants[i] = in.want
	}
	all := combine(wants)
	recordedErr := checkRecorded(o, all)
	fmt.Fprintf(log, "%s: run digest %v\n", o.workload, all)

	cfg := spec.cfg
	if o.trace {
		name, err := tracingKernel(string(cfg.Align))
		if err != nil {
			return nil, err
		}
		cfg.Align = pastis.AlignMode(name)
		traced.tr = tr
	}

	// Closed loop, one build in flight. Every build starts from an empty
	// substitute-neighbor memo, as a fresh process would. A traced run
	// records spans on every second pass over the inputs; the other passes
	// give the untraced times the tracing overhead is measured against.
	var ok samples
	var tracedWalls, plainWalls []float64
	var sums struct{ self, busy, calls, retryMB, tcpWait, frames, tcpMB float64 }
	tracedOps := 0
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for op := int64(0); rep.Attempted == 0 || time.Now().Before(deadline); op++ {
		in := inputs[op%int64(len(inputs))]
		tracing := o.trace && (op/int64(len(inputs)))%2 == 0
		subkmer.ClearCache()
		var rootID int64
		if tracing {
			rootID, _ = tr.begin()
			traced.op.Store(op)
			traced.parent.Store(rootID)
		}
		t0 := tr.now()
		p := startProbe()
		out, err := spec.build(in.recs, cfg)
		smp, perr := p.end()
		t1 := tr.now()
		traced.parent.Store(0)
		rep.Attempted++
		if err == nil {
			err = perr
		}
		if err == nil {
			err = recordedErr
		}
		if err == nil {
			err = checkBuild(out.res, in)
		}
		if err != nil {
			rep.Failed++
			fmt.Fprintf(log, "op %d failed: %v\n", op, err)
			continue
		}
		ok = append(ok, smp)
		sums.retryMB += float64(out.res.RetryBytes) / (1 << 20)
		sums.tcpWait += out.tcp.CommWall.Seconds()
		sums.frames += float64(out.tcp.FramesSent)
		sums.tcpMB += float64(out.tcp.BytesSent) / (1 << 20)
		switch {
		case tracing:
			tr.record(span{id: rootID, op: op, name: "build", start: t0, end: t1})
			ot := tr.summarize(rootID)
			tracedWalls = append(tracedWalls, smp.wall)
			sums.self += ot.self.Seconds()
			sums.busy += ot.busy.Seconds()
			sums.calls += float64(ot.children)
			tracedOps++
		case o.trace:
			plainWalls = append(plainWalls, smp.wall)
		}
	}
	elapsed := time.Since(start).Seconds()
	subkmer.ClearCache()
	logTimes(log, "build", ok.walls())
	if len(ok) == 0 {
		return rep, nil
	}

	// The exact counters are means over the inputs' reference builds; the
	// transports agree on every one of them bit for bit.
	mean := func(f func(*pastis.Result) float64) float64 {
		var sum float64
		for _, in := range inputs {
			sum += f(in.ref)
		}
		return sum / float64(len(inputs))
	}
	m := rep.Metrics
	if !o.trace {
		ok.endToEnd(m, elapsed, setup, mean(func(r *pastis.Result) float64 { return r.Time }))
		return rep, nil
	}
	n := float64(max(tracedOps, 1))
	count := float64(len(ok))
	cells := mean(func(r *pastis.Result) float64 { return float64(r.Stats.CellsComputed) })
	busy := sums.busy / n
	m.set("align.busy_s", busy, "s")
	m.set("align.rank_wall_s", float64(spec.ranks)*median(tracedWalls), "s")
	m.set("align.calls", sums.calls/n, "count")
	m.set("align.cells", cells, "count")
	m.set("align.cells_per_s", ratio(cells, busy), "1/s")
	m.set("align.edge_yield", ratio(mean(func(r *pastis.Result) float64 { return float64(r.Stats.EdgesKept) }),
		mean(func(r *pastis.Result) float64 { return float64(r.Stats.PairsAligned) })), "ratio")
	coreMetrics(m, func(f func(pastis.Stats) float64) float64 {
		return mean(func(r *pastis.Result) float64 { return f(r.Stats) })
	}, mean(func(r *pastis.Result) float64 { return float64(r.EffectiveBlocks) }))
	for name, section := range sectionMetrics {
		m.set(name, mean(func(r *pastis.Result) float64 { return r.Sections[section] }), "s")
	}
	m.set("dmat.peak_mb", mean(func(r *pastis.Result) float64 { return float64(r.PeakBytes) })/(1<<20), "MB")
	m.set("mpi.wire_mb", mean(func(r *pastis.Result) float64 { return float64(r.BytesOnWire) })/(1<<20), "MB")
	m.set("mpi.retry_mb", sums.retryMB/count, "MB")
	m.set("mpi.tcp.wait_s", sums.tcpWait/count, "s")
	m.set("mpi.tcp.frames", sums.frames/count, "count")
	m.set("mpi.tcp.mb", sums.tcpMB/count, "MB")
	ok.runtimePerOp(m)
	traceMetrics(m, tracedWalls, plainWalls, sums.self/n, tr)
	queryMetrics(m, nil)
	if err := layerMetrics(m, tr, o, inputs[0].recs, spec.cfg, spec.ranks); err != nil {
		return nil, err
	}
	tr.logSelfTimes(log)
	return rep, nil
}

// inputSeed derives the seed of a run's i-th input from the run's seed.
func inputSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// checkBuild compares a build with its input's reference: the PSG and the
// virtual makespan must be bit-identical on every transport.
func checkBuild(res *pastis.Result, in avvInput) error {
	if got := edgeDigest(res.Edges); got != in.want {
		return fmt.Errorf("PSG %v, reference %v", got, in.want)
	}
	if res.Time != in.ref.Time {
		return fmt.Errorf("virtual makespan %v, reference %v", res.Time, in.ref.Time)
	}
	return nil
}

// sectionMetrics maps per-layer metric names to the pipeline's virtual
// time sections (pastis.Result.Sections).
var sectionMetrics = map[string]string{
	"core.vt.fasta":  "fasta",
	"core.vt.form_a": "form A",
	"core.vt.tr_a":   "tr. A",
	"core.vt.form_s": "form S",
	"core.vt.as":     "AS",
	"core.vt.as_at":  "(AS)AT",
	"core.vt.sym":    "sym.",
	"core.vt.align":  "align",
	"core.vt.wait":   "wait",
}

// coreMetrics reports the pipeline's exact counters; stat reads one
// counter (averaged over a run's inputs by the caller).
func coreMetrics(m metrics, stat func(func(pastis.Stats) float64) float64, waves float64) {
	nnzB := stat(func(s pastis.Stats) float64 { return float64(s.NNZB) })
	pruned := stat(func(s pastis.Stats) float64 { return float64(s.NNZBPruned) })
	m.set("core.nnz_a", stat(func(s pastis.Stats) float64 { return float64(s.NNZA) }), "count")
	m.set("core.nnz_as", stat(func(s pastis.Stats) float64 { return float64(s.NNZAS) }), "count")
	m.set("core.nnz_b", nnzB, "count")
	m.set("core.nnz_b_pruned", pruned, "count")
	m.set("core.prune_yield", ratio(pruned, nnzB), "ratio")
	m.set("core.pairs_aligned", stat(func(s pastis.Stats) float64 { return float64(s.PairsAligned) }), "count")
	m.set("core.edges", stat(func(s pastis.Stats) float64 { return float64(s.EdgesKept) }), "count")
	m.set("core.waves", waves, "count")
}

// traceMetrics reports the root spans' self time and the tracing
// overhead: the median traced operation over the median untraced one.
func traceMetrics(m metrics, tracedWalls, plainWalls []float64, selfS float64, tr *tracer) {
	m.set("trace.op_ms", median(tracedWalls)*1e3, "ms")
	m.set("trace.op_self_s", selfS, "s")
	m.set("trace.overhead", ratio(median(tracedWalls), median(plainWalls)), "ratio")
	m.set("trace.spans", float64(tr.count()), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// logTimes prints an operation-time summary: the median and the highest
// of p90/p95/p99 with at least ten samples beyond it.
func logTimes(log io.Writer, what string, walls []float64) {
	fmt.Fprintf(log, "%s: n=%d p50=%.4fs", what, len(walls), median(walls))
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(walls))*(1-q) >= 10 {
			fmt.Fprintf(log, " p%.0f=%.4fs", q*100, quantile(walls, q))
			break
		}
	}
	fmt.Fprintln(log)
}
