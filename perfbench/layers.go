package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/core"
	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/kmer"
	"repro/internal/scoring"
	"repro/internal/spmat"
	"repro/internal/subkmer"
)

// layerReps is how many times each layer call repeats; its metric is the
// median.
const layerReps = 3

// layerMetrics times calls into each layer's public functions on the
// workload's input, each inside a root span of its own. cfg supplies k,
// m and the index configuration.
func layerMetrics(m metrics, tr *tracer, o options, recs []pastis.Record, cfg pastis.Config, ranks int) error {
	op := int64(-1) // layer calls use negative op ids
	timed := func(name string, fn func() error) (float64, error) {
		var times []float64
		for i := 0; i < layerReps; i++ {
			d, err := tr.timed(name, op, fn)
			op--
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			times = append(times, d.Seconds())
		}
		return median(times), nil
	}

	data := fasta.Bytes(recs, 0)
	d, err := timed("fasta.parse", func() error {
		parsed, err := fasta.ParseBytes(data)
		if err == nil && len(parsed) != len(recs) {
			err = fmt.Errorf("parsed %d records, want %d", len(parsed), len(recs))
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("fasta.parse_s", d, "s")

	// Form A: extract every sequence's k-mers, keeping each k-mer's first
	// position per sequence, as the pipeline does.
	var kmers [][]kmer.Kmer
	d, err = timed("kmer.extract", func() error {
		kmers = kmers[:0]
		for _, r := range recs {
			ks, err := kmer.Extract(r.Seq, cfg.K, true)
			if err != nil {
				return err
			}
			kmers = append(kmers, ks)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var occurrences int
	var triples []spmat.Triple[int32]
	distinct := make(map[kmer.ID]struct{})
	for row, ks := range kmers {
		occurrences += len(ks)
		first := make(map[kmer.ID]struct{}, len(ks))
		for _, km := range ks {
			if _, dup := first[km.ID]; dup {
				continue
			}
			first[km.ID] = struct{}{}
			distinct[km.ID] = struct{}{}
			triples = append(triples, spmat.Triple[int32]{Row: spmat.Index(row), Col: spmat.Index(km.ID), Val: int32(km.Pos)})
		}
	}
	m.set("kmer.extract_s", d, "s")
	m.set("kmer.occurrences", float64(occurrences), "count")

	var a *spmat.DCSC[int32]
	d, err = timed("spmat.from_triples", func() error {
		a, err = spmat.FromTriples(spmat.Index(len(recs)), spmat.Index(kmer.SpaceSize(cfg.K)), triples, nil)
		return err
	})
	if err != nil {
		return err
	}
	m.set("spmat.from_triples_s", d, "s")

	at := a.Transpose()
	var flops int64
	d, err = timed("spmat.spgemm", func() error {
		_, st, err := spmat.SpGEMMHash(a, at, core.ExactSemiring)
		flops = st.Flops
		return err
	})
	if err != nil {
		return err
	}
	m.set("spmat.spgemm_s", d, "s")
	m.set("spmat.flops", float64(flops), "count")
	m.set("spmat.flops_per_s", ratio(float64(flops), d), "1/s")

	const subs = 10
	expense := scoring.NewExpense(scoring.BLOSUM62)
	var neighbors int
	d, err = timed("subkmer.find", func() error {
		subkmer.ClearCache()
		neighbors = 0
		for id := range distinct {
			nbrs, err := subkmer.Find(id, cfg.K, expense, subs)
			if err != nil {
				return err
			}
			neighbors += len(nbrs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("subkmer.find_s", d, "s")
	m.set("subkmer.neighbors", float64(neighbors), "count")

	d, err = timed("dmat.codec", func() error {
		back, err := dmat.DecodeBlock(dmat.EncodeBlock(a, dmat.Int32Codec), dmat.Int32Codec)
		if err == nil && back.NNZ() != a.NNZ() {
			err = fmt.Errorf("round trip kept %d of %d nonzeros", back.NNZ(), a.NNZ())
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("dmat.codec_s", d, "s")

	return indexMetrics(m, o, recs, cfg, ranks, timed)
}

// indexMetrics builds, opens and loads an index of recs. query-serve
// measures its own database's index here; the all-vs-all workloads index
// their input.
func indexMetrics(m metrics, o options, recs []pastis.Record, cfg pastis.Config, ranks int,
	timed func(string, func() error) (float64, error)) error {
	dir := filepath.Join(o.scratch, "layer-index")
	var info *pastis.IndexInfo
	d, err := timed("index.build", func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		var err error
		info, err = pastis.BuildIndex(recs, ranks, cfg, dir)
		return err
	})
	if err != nil {
		return err
	}
	m.set("index.build_s", d, "s")
	m.set("index.mb", float64(info.Bytes)/(1<<20), "MB")
	d, err = timed("index.open", func() error {
		_, err := pastis.OpenIndex(dir)
		return err
	})
	if err != nil {
		return err
	}
	m.set("index.open_s", d, "s")
	d, err = timed("index.load", func() error {
		for rank := index.ManifestRank; rank < ranks; rank++ {
			if _, _, err := index.Load(dir, rank); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("index.load_s", d, "s")
	return os.RemoveAll(dir)
}

// queryStats are the serving counters of a query-serve run.
type queryStats struct {
	coldMS        []float64
	warm          []float64 // warm batch wall seconds
	virtualMS     []float64 // virtual batch makespans of batches that ran the pipeline
	queries, hits int
	batches       int
}

// queryMetrics reports the serving counters; the all-vs-all workloads
// serve no queries and report zeros.
func queryMetrics(m metrics, q *queryStats) {
	if q == nil {
		q = &queryStats{}
	}
	m.set("query.cold_ms", median(q.coldMS), "ms")
	m.set("query.p95_ms", quantile(q.warm, 0.95)*1e3, "ms")
	m.set("query.samples", float64(len(q.warm)), "count")
	m.set("query.cache_hit_ratio", ratio(float64(q.hits), float64(q.queries)), "ratio")
	m.set("query.misses_per_batch", ratio(float64(q.queries-q.hits), float64(q.batches)), "count")
	m.set("query.virtual_ms", median(q.virtualMS), "ms")
}
