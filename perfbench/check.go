package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro"
)

// digest identifies a PSG or a batch's hits: the element count and an
// FNV-1a hash over every field of every element, in order.
type digest struct {
	Count int
	Hash  uint64
}

func (d digest) String() string { return fmt.Sprintf("%d/%016x", d.Count, d.Hash) }

type hasher struct {
	buf []byte
}

func (h *hasher) u64(v uint64)  { h.buf = binary.LittleEndian.AppendUint64(h.buf, v) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) sum(count int) digest {
	f := fnv.New64a()
	f.Write(h.buf)
	return digest{Count: count, Hash: f.Sum64()}
}

// edgeDigest hashes a PSG edge list (already sorted by the pipeline).
func edgeDigest(edges []pastis.Edge) digest {
	var h hasher
	for _, e := range edges {
		h.u64(uint64(e.R))
		h.u64(uint64(e.C))
		h.f64(e.Weight)
		h.f64(e.Ident)
		h.f64(e.Cov)
		h.f64(e.NS)
		h.u64(uint64(e.Score))
	}
	return h.sum(len(edges))
}

// hitDigest hashes a batch's hits (sorted by query, then target).
func hitDigest(hits []pastis.Hit) digest {
	var h hasher
	for _, x := range hits {
		h.u64(uint64(x.Query))
		h.u64(uint64(x.Target))
		h.f64(x.Weight)
		h.f64(x.Ident)
		h.f64(x.Cov)
		h.f64(x.NS)
		h.u64(uint64(x.Score))
	}
	return h.sum(len(hits))
}

// combine folds the reference digests of a run's inputs into one.
func combine(ds []digest) digest {
	var h hasher
	count := 0
	for _, d := range ds {
		h.u64(uint64(d.Count))
		h.u64(d.Hash)
		count += d.Count
	}
	return h.sum(count)
}

// recordedSeed is the seed whose outputs are pinned in recorded.
const recordedSeed = 1

// recorded pins, for recordedSeed, the PSGs (avv workloads) or the cold
// batches' hits (query-serve) of each workload at each size, folded over
// the run's inputs. A change to the synthetic generators or to the
// pipeline's output shows up here as failed operations.
var recorded = map[string]map[string]digest{
	"full": {
		"avv-exact-xd": {9577, 0x9fb4987bf9db46ce},
		"avv-subs-tcp": {153, 0xa11b59bac66d21b6},
		"query-serve":  {239, 0x86b9f3da74c8a6d2},
	},
	"tiny": {
		"avv-exact-xd": {864, 0x7cc5af437a54cb41},
		"avv-subs-tcp": {47, 0x4cb4c08f0837c41d},
		"query-serve":  {274, 0x299f5b2f0ada9046},
	},
}

// checkRecorded compares got with the recorded digest when the run uses
// recordedSeed; other seeds are checked against their own reference
// builds only.
func checkRecorded(o options, got digest) error {
	if o.seed != recordedSeed {
		return nil
	}
	want, ok := recorded[o.size][o.workload]
	if !ok {
		return fmt.Errorf("no recorded output for %s at size %s", o.workload, o.size)
	}
	if got != want {
		return fmt.Errorf("seed %d: output %v, recorded %v", o.seed, got, want)
	}
	return nil
}
