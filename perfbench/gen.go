package main

import (
	"ampsched/internal/rng"
	"ampsched/internal/server"
	"ampsched/internal/workload"
)

// Input generation. Every workload's inputs are a pure function of the
// workload seed, and the program under test only ever sees the
// generated specs: the server seed, profiling scale and engine knobs
// stay fixed, so a timed job never re-profiles.

// jobKind classifies a generated job by what the cache should do with
// it.
type jobKind uint8

const (
	kindCold jobKind = iota // a spec the program has never seen
	kindHot                 // a replay of an already-cached spec
)

func (k jobKind) String() string {
	return [...]string{"cold", "hot"}[k]
}

// genJob is one generated job: the spec sent to the service and its
// kind.
type genJob struct {
	Spec server.JobSpec
	Kind jobKind
}

// orderedPairs lists every ordered pair of distinct benchmarks of the
// full pool (37 * 36 = 1332), in pool order.
func orderedPairs() [][2]string {
	all := workload.All()
	out := make([][2]string, 0, len(all)*(len(all)-1))
	for _, a := range all {
		for _, b := range all {
			if a != b {
				out = append(out, [2]string{a.Name, b.Name})
			}
		}
	}
	return out
}

// mix derives an independent stream seed from the workload seed and a
// stream number.
func mix(seed, stream uint64) uint64 {
	return rng.New(seed ^ (stream+1)*0x9E3779B97F4A7C15).Uint64()
}

// coldGen yields one-pair jobs the service has never seen: pass p
// walks the ordered pairs in a seeded order at instruction limit
// base+1+p, so the next pass is new to the cache as well.
type coldGen struct {
	seed  uint64
	base  uint64
	pairs [][2]string
	perms map[int][]int
}

func newColdGen(seed, baseLimit uint64) *coldGen {
	return &coldGen{seed: seed, base: baseLimit, pairs: orderedPairs(), perms: map[int][]int{}}
}

func (g *coldGen) job(i int) genJob {
	pass, pos := i/len(g.pairs), i%len(g.pairs)
	perm, ok := g.perms[pass]
	if !ok {
		perm = rng.New(mix(g.seed, uint64(pass))).Perm(len(g.pairs))
		g.perms[pass] = perm
	}
	sp := server.JobSpec{InstrLimit: g.base + 1 + uint64(pass), PairNames: [][2]string{g.pairs[perm[pos]]}}
	return genJob{Spec: sp, Kind: kindCold}
}

// fleetHotEvery pins one in this many fleet-skew jobs to the hot spec.
// It is odd so that round-robin spraying sends the hot spec to every
// node in turn.
const fleetHotEvery = 3

// fleetGen sprays cold one-pair jobs with every fleetHotEvery-th job
// pinned to one seeded hot spec, like amploadgen -skew.
type fleetGen struct {
	cold *coldGen
	hot  server.JobSpec
}

func newFleetGen(seed, baseLimit uint64) *fleetGen {
	pairs := orderedPairs()
	hot := pairs[rng.New(mix(seed, 1<<35)).Intn(len(pairs))]
	return &fleetGen{
		cold: newColdGen(seed, baseLimit),
		hot:  server.JobSpec{PairNames: [][2]string{hot}, InstrLimit: baseLimit},
	}
}

func (g *fleetGen) job(i int) genJob {
	if i%fleetHotEvery == 0 {
		return genJob{Spec: g.hot, Kind: kindHot}
	}
	return g.cold.job(i - i/fleetHotEvery - 1)
}

// warmupSpecs covers every benchmark on both cores: the ordered pairs
// (b[k], b[k+1]) put each benchmark once on the INT core and once on
// the FP core. The pairs are split into n jobs so n queue workers
// calibrate in parallel.
func warmupSpecs(n int, limit uint64) []server.JobSpec {
	all := workload.All()
	specs := make([]server.JobSpec, n)
	for k := range all {
		pair := [2]string{all[k].Name, all[(k+1)%len(all)].Name}
		specs[k%n].PairNames = append(specs[k%n].PairNames, pair)
	}
	for k := range specs {
		specs[k].InstrLimit = limit
	}
	return specs
}
