package main

import (
	"cmp"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"time"

	"repro"
)

const (
	batchSize  = 16
	coldReps   = 3   // index reopenings each cold batch is timed over
	repeatFrom = 256 // repeats are drawn from this many most recent queries
	// virtualPrefix is how many warm batches every run serves at least;
	// virtual_s averages their virtual makespans, which makes it exact.
	virtualPrefix = 256
)

// querySpec is the query-serve configuration: metaclust-like databases
// indexed on 4 ranks with exact k-mers, queried with the x-drop kernel.
// How a database falls across the ranks sets its batches' cost, so a run
// serves 4 databases in turn.
var querySpec = avvSpec{
	ranks:  4,
	inputs: 4,
	input:  metaclustInput,
	cfg:    avvExactXD.cfg,
}

// database is one indexed database with its query stream and engine.
type database struct {
	recs   []pastis.Record
	dir    string
	stream *queryStream
	cold   []query // the stream's first batch
	want   digest  // the cold batch's reference hits
	eng    *pastis.QueryEngine
	seen   map[string]digest // hits served per query sequence
	stats  pastis.Stats      // the cold batch's counters
}

// query is one generated query; source is the database sequence a homolog
// was derived from, or -1.
type query struct {
	rec    pastis.Record
	source int
}

// queryStream generates the closed-loop traffic: about 65% homologs (10%
// point-substituted copies of database sequences), 10% unrelated random
// sequences and 25% exact repeats of recent queries.
type queryStream struct {
	rng     *rand.Rand
	db      []pastis.Record
	history []query
	n       int
}

func newQueryStream(seed int64, db []pastis.Record) *queryStream {
	return &queryStream{rng: rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)), db: db}
}

const residues = "ACDEFGHIKLMNPQRSTVWY"

func (s *queryStream) next() query {
	r := s.rng.Float64()
	if r < 0.25 && len(s.history) > 0 {
		recent := s.history[max(0, len(s.history)-repeatFrom):]
		return recent[s.rng.IntN(len(recent))]
	}
	s.n++
	id := fmt.Sprintf("q%d", s.n)
	var q query
	if r < 0.35 {
		n := len(s.db[s.rng.IntN(len(s.db))].Seq)
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = residues[s.rng.IntN(len(residues))]
		}
		q = query{rec: pastis.Record{ID: id, Seq: seq}, source: -1}
	} else {
		src := s.rng.IntN(len(s.db))
		seq := append([]byte(nil), s.db[src].Seq...)
		for i := range seq {
			if s.rng.Float64() < 0.10 {
				seq[i] = residues[s.rng.IntN(len(residues))]
			}
		}
		q = query{rec: pastis.Record{ID: id, Seq: seq}, source: src}
	}
	s.history = append(s.history, q)
	return q
}

func (s *queryStream) batch() []query {
	b := make([]query, batchSize)
	for i := range b {
		b[i] = s.next()
	}
	return b
}

func records(b []query) []pastis.Record {
	recs := make([]pastis.Record, len(b))
	for i, q := range b {
		recs[i] = q.rec
	}
	return recs
}

// expectedHits is the cold batch's reference: BuildGraph over the
// database plus the batch, restricted to (query, database) pairs.
func expectedHits(db []pastis.Record, batch []query, cfg pastis.Config, ranks int) (digest, error) {
	all := append(append([]pastis.Record(nil), db...), records(batch)...)
	res, err := pastis.BuildGraph(all, ranks, cfg)
	if err != nil {
		return digest{}, err
	}
	var hits []pastis.Hit
	n := len(db)
	for _, e := range res.Edges {
		if int(e.R) < n && int(e.C) >= n {
			hits = append(hits, pastis.Hit{Query: int(e.C) - n, Target: int(e.R),
				Weight: e.Weight, Ident: e.Ident, Cov: e.Cov, NS: e.NS, Score: e.Score})
		}
	}
	sortHits(hits)
	return hitDigest(hits), nil
}

func sortHits(hits []pastis.Hit) {
	slices.SortFunc(hits, func(a, b pastis.Hit) int {
		if c := cmp.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		return cmp.Compare(a.Target, b.Target)
	})
}

// checkBatch verifies a served batch: every query's hits must equal the
// hits served for the same sequence earlier in the run, and a homolog must
// hit the database sequence it was derived from.
func checkBatch(batch []query, res *pastis.QueryBatch, seen map[string]digest) error {
	per := make([][]pastis.Hit, len(batch))
	for _, h := range res.Hits {
		if h.Query < 0 || h.Query >= len(batch) {
			return fmt.Errorf("hit for query %d of a %d-query batch", h.Query, len(batch))
		}
		per[h.Query] = append(per[h.Query], h)
	}
	for i, q := range batch {
		found := q.source < 0
		for j := range per[i] {
			found = found || per[i][j].Target == q.source
			per[i][j].Query, per[i][j].QueryID = 0, ""
		}
		if !found {
			return fmt.Errorf("query %s missed its source sequence %d", q.rec.ID, q.source)
		}
		d := hitDigest(per[i])
		key := string(q.rec.Seq)
		if prev, ok := seen[key]; ok && prev != d {
			return fmt.Errorf("query %s: hits %v, earlier %v", q.rec.ID, d, prev)
		}
		seen[key] = d
	}
	return nil
}

// runQuery measures a closed loop of query batches against indexes.
func runQuery(o options, log io.Writer) (*report, error) {
	tr := newTracer()
	rep := &report{Metrics: metrics{}}
	spec := querySpec
	traceCall := func(name string, fn func() error) error {
		if !o.trace {
			return fn()
		}
		_, err := tr.timed(name, 0, fn)
		return err
	}

	// Set-up, once per database: generate it, build its index and open
	// it. The cold batch's reference build is not part of set-up.
	dbs := make([]*database, spec.inputs)
	var setup []float64
	var wants []digest
	for i := range dbs {
		t0 := time.Now()
		recs, err := spec.input(inputSeed(o.seed, i), o.size)
		if err != nil {
			return nil, err
		}
		d := &database{recs: recs, dir: filepath.Join(o.scratch, fmt.Sprintf("index-%d", i)), seen: map[string]digest{}}
		if err := traceCall("index.build", func() error {
			_, err := pastis.BuildIndex(recs, spec.ranks, spec.cfg, d.dir)
			return err
		}); err != nil {
			return nil, fmt.Errorf("build index: %w", err)
		}
		if err := traceCall("index.open", func() error {
			_, err := pastis.OpenIndex(d.dir)
			return err
		}); err != nil {
			return nil, fmt.Errorf("open index: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		d.stream = newQueryStream(inputSeed(o.seed, i), recs)
		d.cold = d.stream.batch()
		if d.want, err = expectedHits(recs, d.cold, spec.cfg, spec.ranks); err != nil {
			return nil, fmt.Errorf("cold batch reference: %w", err)
		}
		fmt.Fprintf(log, "%s database %d: %d sequences, cold batch hits %v\n", o.workload, i, len(recs), d.want)
		dbs[i] = d
		wants = append(wants, d.want)
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

	// The first coldReps passes over the databases reopen each index and
	// serve its cold batch; later batches come from the databases'
	// streams in turn, on the last engines. A traced run records spans on
	// every second pass.
	var q queryStats
	var ok samples
	var tracedWalls, plainWalls []float64
	var sums struct{ self, busy, calls, cells, pairs, edges float64 }
	var tracedOps int
	var prefixVirtual float64
	k := int64(len(dbs))
	coldOps := coldReps * k
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for op := int64(0); op < coldOps+virtualPrefix || time.Now().Before(deadline); op++ {
		d := dbs[op%k]
		isCold := op < coldOps
		batch := d.cold
		if isCold {
			if err := traceCall("index.open", func() error {
				var err error
				d.eng, err = pastis.OpenIndex(d.dir)
				return err
			}); err != nil {
				return nil, fmt.Errorf("open index: %w", err)
			}
		} else {
			batch = d.stream.batch()
		}
		tracing := o.trace && (op/k)%2 == 0
		var rootID int64
		if tracing {
			rootID, _ = tr.begin()
			traced.op.Store(op)
			traced.parent.Store(rootID)
		}
		t0 := tr.now()
		p := startProbe()
		res, err := d.eng.Query(records(batch), cfg)
		smp, perr := p.end()
		t1 := tr.now()
		traced.parent.Store(0)
		rep.Attempted++
		if err == nil {
			err = perr
		}
		if err == nil && isCold {
			err = recordedErr
			if got := hitDigest(res.Hits); err == nil && got != d.want {
				err = fmt.Errorf("cold batch hits %v, reference %v", got, d.want)
			}
		}
		if err == nil {
			err = checkBatch(batch, res, d.seen)
		}
		if err != nil {
			rep.Failed++
			fmt.Fprintf(log, "op %d failed: %v\n", op, err)
			continue
		}
		if tracing {
			tr.record(span{id: rootID, op: op, name: "query", start: t0, end: t1})
		}
		if isCold {
			q.coldMS = append(q.coldMS, smp.wall*1e3)
			d.stats = res.Stats
			start = time.Now() // the warm loop's throughput clock
			continue
		}
		switch {
		case tracing:
			ot := tr.summarize(rootID)
			tracedWalls = append(tracedWalls, smp.wall)
			sums.self += ot.self.Seconds()
			sums.busy += ot.busy.Seconds()
			sums.calls += float64(ot.children)
			sums.cells += float64(res.Stats.CellsComputed)
			tracedOps++
		case o.trace:
			plainWalls = append(plainWalls, smp.wall)
		}
		ok = append(ok, smp)
		q.batches++
		q.queries += len(batch)
		q.hits += res.CacheHits
		sums.pairs += float64(res.Stats.PairsAligned)
		sums.edges += float64(res.Stats.EdgesKept)
		if res.Time > 0 {
			q.virtualMS = append(q.virtualMS, res.Time*1e3)
		}
		if q.batches <= virtualPrefix {
			prefixVirtual += res.Time / virtualPrefix
		}
	}
	elapsed := time.Since(start).Seconds()
	q.warm = ok.walls()
	logTimes(log, "warm batch", q.warm)
	fmt.Fprintf(log, "cold batch: %.1f ms\n", q.coldMS)
	if len(ok) == 0 {
		return rep, nil
	}

	m := rep.Metrics
	if !o.trace {
		ok.endToEnd(m, elapsed, setup, prefixVirtual)
		return rep, nil
	}
	// Batches report no section ledger, wire bytes or matrix peak: those
	// per-layer metrics read 0 here.
	n := float64(max(tracedOps, 1))
	m.set("align.busy_s", sums.busy/n, "s")
	m.set("align.rank_wall_s", float64(spec.ranks)*median(tracedWalls), "s")
	m.set("align.calls", sums.calls/n, "count")
	m.set("align.cells", sums.cells/n, "count")
	m.set("align.cells_per_s", ratio(sums.cells, sums.busy), "1/s")
	m.set("align.edge_yield", ratio(sums.edges, sums.pairs), "ratio")
	coreMetrics(m, func(f func(pastis.Stats) float64) float64 {
		var sum float64
		for _, d := range dbs {
			sum += f(d.stats)
		}
		return sum / float64(len(dbs))
	}, 1)
	for name := range sectionMetrics {
		m.set(name, 0, "s")
	}
	for _, name := range []string{"dmat.peak_mb", "mpi.wire_mb", "mpi.retry_mb", "mpi.tcp.mb"} {
		m.set(name, 0, "MB")
	}
	m.set("mpi.tcp.wait_s", 0, "s")
	m.set("mpi.tcp.frames", 0, "count")
	ok.runtimePerOp(m)
	traceMetrics(m, tracedWalls, plainWalls, sums.self/n, tr)
	queryMetrics(m, &q)
	if err := layerMetrics(m, tr, o, dbs[0].recs, spec.cfg, spec.ranks); err != nil {
		return nil, err
	}
	tr.logSelfTimes(log)
	return rep, nil
}
