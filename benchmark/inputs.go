package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
)

// inputs is everything a workload feeds the program: generated series only.
// The program never sees the seed or the workload's name.
type inputs struct {
	db      [][]float64 // the database rows, in the population's order
	queries [][]float64 // held-out members of the same population
	asked   [][]float64 // the queries in the order this seed asks them
	extra   [][]float64 // store-rw: rows to ingest while reading
	rng     *rand.Rand  // continues the seed's stream for op-level draws
	sum     hash.Hash
}

// generate draws m+queries+extra series of one synth family from the fixed
// population and presents them as the seed dictates: every query at its own
// seeded rotation, asked in a seeded order. The database rows stay as the
// population has them: the order a scan meets its rows in decides how fast
// the best-so-far tightens (shuffling it moves steps_per_op by ±9 % on
// scan-ed and ±25 % on scan-dtw between seeds), and a row's rotation decides
// where LB_Keogh abandons (±5 %); a query's rotation moves it by ±0.6 %.
// Queries are held out of the same generator call, so each has near
// neighbours in the database the way a real query would.
func generate(family func(seed int64, m, n int) [][]float64, sz size, extra int, seed int64) *inputs {
	all := family(populationSeed, sz.M+sz.Queries+extra, sz.N)
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		db:      all[:sz.M],
		queries: all[sz.M : sz.M+sz.Queries],
		extra:   all[sz.M+sz.Queries:],
		rng:     rng,
		sum:     sha256.New(),
	}
	in.asked = append(in.asked, in.queries...)
	rng.Shuffle(len(in.asked), func(i, j int) { in.asked[i], in.asked[j] = in.asked[j], in.asked[i] })
	for _, rows := range [][][]float64{in.db, in.asked, in.extra} {
		for _, s := range rows {
			in.hashSeries(s)
		}
	}
	return in
}

func (in *inputs) hashSeries(s []float64) {
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		in.sum.Write(buf[:])
	}
}

// hashBytes folds generated request bodies into the input hash.
func (in *inputs) hashBytes(b []byte) { in.sum.Write(b) }

// hash identifies the generated inputs: same seed, same hash.
func (in *inputs) hash() string { return hex.EncodeToString(in.sum.Sum(nil))[:16] }
