package main

import (
	"fmt"
	"math/rand"
)

// opKind is one client-visible operation type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
	opScan
	opSnap
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "del", "scan", "snapscan"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) point() bool { return k <= opDel }

// Fixed workload geometry shared by every workload, so a change that
// moves one workload's figures cannot do so by reshaping the set.
const (
	shards       = 4    // shard count of every set
	zones        = 8    // pool zones per shard (1 MiB each, default geometry)
	partitions   = 1024 // key partitions; keys of one partition are only ever touched by one in-flight request
	scanPairs    = 64   // SCAN limit
	snapWindow   = 4096 // SNAPSCAN window, in keys
	snapPage     = 1024 // SNAPSCAN page limit
	preloadBatch = 512  // pairs per MPUT frame during set-up
	setupReps    = 3    // set-ups per run; setup_s is their median
	recoverReps  = 41   // timed reopens per run; recover_s is their median
	mode         = "pangolin-mlpc"
)

// workload is one traffic mix against one set shape. Every number here is
// a fixed input: in particular rate is never derived from a run's own
// closed-loop throughput, or a faster change would move its own yardstick.
type workload struct {
	name      string
	structure string
	keys      int           // preloaded keys, dense in [0, keys)
	mix       [numKinds]int // per-mille weights, summing to 1000
	conns     int           // client connections (at most nproc)
	depth     int           // closed-loop in-flight requests per connection
	rate      float64       // open-loop offered rate, ops/s
	// groupDepth is the batch size of the store and core replays'
	// "group" figures: the closed loop's shard.group_depth_mean as
	// measured on this workload, rounded. It is a constant, so the
	// persist counts it yields repeat exactly.
	groupDepth int
}

var workloads = []workload{
	{
		name: "update-pipelined", structure: "hashmap", keys: 64 << 10,
		mix:   [numKinds]int{opGet: 400, opPut: 500, opDel: 100},
		conns: 2, depth: 32, rate: 1000, groupDepth: 6,
	},
	{
		name: "read-scan", structure: "btree", keys: 256 << 10,
		mix:   [numKinds]int{opGet: 800, opScan: 80, opSnap: 20, opPut: 100},
		conns: 2, depth: 8, rate: 1000, groupDepth: 2,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// slots is the closed-loop in-flight count; it divides partitions.
func (w workload) slots() int { return w.conns * w.depth }

// op is one generated request. Point ops carry k (and v for PUT); scans
// carry the inclusive range [k, hi].
type op struct {
	kind opKind
	k, v uint64
	hi   uint64
}

// keyBits is the width of the key embedded in every value, so any pair
// read back can be checked against its own key.
const keyBits = 24

// newValue returns a fresh nonzero value for k that embeds k.
func newValue(k uint64, r *rand.Rand) uint64 {
	return (r.Uint64()>>keyBits|1)<<keyBits | k
}

func pickKind(mix *[numKinds]int, r *rand.Rand) opKind {
	x := r.Intn(1000)
	for k, w := range mix {
		if x < w {
			return opKind(k)
		}
		x -= w
	}
	return opGet
}

// gen draws one stream's ops. A stream owns a residue class of keys
// (k mod stride == class) for point ops, so the ops of one stream never
// race another stream's on a key.
type gen struct {
	w   *workload
	r   *rand.Rand
	mix [numKinds]int
}

func newGen(w *workload, seed int64, stream string, idx int, pointOnly bool) *gen {
	g := &gen{w: w, r: rand.New(rand.NewSource(streamSeed(seed, stream, idx))), mix: w.mix}
	if pointOnly {
		g.mix[opScan], g.mix[opSnap] = 0, 0
		total := g.mix[opGet] + g.mix[opPut] + g.mix[opDel]
		// Rescale the point ops to per-mille, keeping their proportions.
		g.mix[opGet] = g.mix[opGet] * 1000 / total
		g.mix[opDel] = g.mix[opDel] * 1000 / total
		g.mix[opPut] = 1000 - g.mix[opGet] - g.mix[opDel]
	}
	return g
}

// next draws an op whose point key lies in class mod stride.
func (g *gen) next(class, stride int) op {
	return g.opFor(pickKind(&g.mix, g.r), class, stride)
}

// kind draws the next op's kind; opFor then draws its operands.
func (g *gen) kind() opKind { return pickKind(&g.mix, g.r) }

func (g *gen) opFor(kind opKind, class, stride int) op {
	switch kind {
	case opScan:
		lo := uint64(g.r.Intn(g.w.keys))
		return op{kind: kind, k: lo, hi: uint64(g.w.keys - 1)}
	case opSnap:
		lo := uint64(g.r.Intn(g.w.keys - snapWindow + 1))
		return op{kind: kind, k: lo, hi: lo + snapWindow - 1}
	}
	k := uint64(g.r.Intn(g.w.keys/stride)*stride + class)
	o := op{kind: kind, k: k}
	if kind == opPut {
		o.v = newValue(k, g.r)
	}
	return o
}

// streamSeed derives an independent, reproducible seed per stream.
func streamSeed(seed int64, stream string, idx int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 0x100000001b3
	}
	h ^= h >> 31
	return int64(h & (1<<63 - 1))
}

// preloadValue is the value every key holds after set-up.
func preloadValue(k uint64) uint64 { return 1<<keyBits | k }
