package main

import (
	"fmt"

	"repro"
)

// inputShape fixes how much work a generated input carries, so that
// different seeds give inputs of nearly equal cost: the synthetic
// generators draw family sizes from a geometric distribution and ancestor
// lengths from a log-uniform one, which alone moves the build time of a
// 600-sequence input by a third from seed to seed.
type inputShape struct {
	members       int // sequences taken from each family
	familyResidue int // residues of family members to take
	noiseResidue  int // residues of unrelated sequences to take
}

// take selects from a generated pool whole families of exactly
// s.members sequences (skipping smaller families), in family order, until
// familyResidue is reached, then unrelated sequences until noiseResidue
// is reached. The result keeps the pool's shuffled order.
func (s inputShape) take(pool *pastis.Dataset) ([]pastis.Record, error) {
	byFamily := make([][]int, pool.NumFam)
	var noise []int
	for i, f := range pool.Families {
		if f < 0 {
			noise = append(noise, i)
		} else {
			byFamily[f] = append(byFamily[f], i)
		}
	}
	keep := make([]bool, len(pool.Records))
	famRes, noiseRes := 0, 0
	for _, members := range byFamily {
		if famRes >= s.familyResidue {
			break
		}
		if len(members) < s.members {
			continue
		}
		for _, i := range members[:s.members] {
			keep[i] = true
			famRes += len(pool.Records[i].Seq)
		}
	}
	for _, i := range noise {
		if noiseRes >= s.noiseResidue {
			break
		}
		keep[i] = true
		noiseRes += len(pool.Records[i].Seq)
	}
	if famRes < s.familyResidue || noiseRes < s.noiseResidue {
		return nil, fmt.Errorf("generated pool too small: %d/%d family and %d/%d unrelated residues",
			famRes, s.familyResidue, noiseRes, s.noiseResidue)
	}
	var out []pastis.Record
	for i, k := range keep {
		if k {
			out = append(out, pool.Records[i])
		}
	}
	return out, nil
}

// metaclustInput is the all-vs-all input of avv-exact-xd and the
// database of query-serve: metaclust-like families of 8 plus unrelated
// sequences, about 500 sequences and 140k residues at full size.
func metaclustInput(seed int64, size string) ([]pastis.Record, error) {
	shape := inputShape{members: 8, familyResidue: 110_000, noiseResidue: 30_000}
	poolSize := 2400
	if size == "tiny" {
		shape = inputShape{members: 8, familyResidue: 8_000, noiseResidue: 2_000}
		poolSize = 400
	}
	pool, err := pastis.GenerateMetaclustLike(poolSize, seed)
	if err != nil {
		return nil, err
	}
	return shape.take(pool)
}

// scopeInput is the all-vs-all input of avv-subs-tcp: SCOPe-like families
// of 8 (remote homologs grouped in superfamilies) plus unrelated
// sequences, about 170 sequences and 30k residues at full size.
func scopeInput(seed int64, size string) ([]pastis.Record, error) {
	shape := inputShape{members: 8, familyResidue: 24_000, noiseResidue: 6_000}
	families := 80
	if size == "tiny" {
		shape = inputShape{members: 8, familyResidue: 4_000, noiseResidue: 1_000}
		families = 30
	}
	pool, err := pastis.GenerateScopeLike(families, seed)
	if err != nil {
		return nil, err
	}
	return shape.take(pool)
}
