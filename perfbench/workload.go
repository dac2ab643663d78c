package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Conns is the number of load-generator connections. Each connection owns
// a disjoint half of the keyspace, so the replies on one connection depend
// only on that connection's own earlier requests and can be predicted
// exactly.
const Conns = 2

// Kind is a request type.
type Kind uint8

const (
	Get Kind = iota
	Set
	Del
)

func (k Kind) String() string { return [...]string{"GET", "SET", "DEL"}[k] }

// Req is one request of a generated stream.
type Req struct {
	Kind     Kind
	Key, Val uint64
}

func (r Req) isRead() bool { return r.Kind == Get }

// Encode appends the request's protocol line to b.
func (r Req) Encode(b []byte) []byte {
	b = append(b, r.Kind.String()...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, r.Key, 10)
	if r.Kind == Set {
		b = append(b, ' ')
		b = strconv.AppendUint(b, r.Val, 10)
	}
	return append(b, '\r', '\n')
}

// Spec fixes a workload's shape. Op counts are derived from the run length
// and the fixed rates below, never from a measured capacity, so a faster
// build does the same work and reaches the same store fill.
type Spec struct {
	// OpenRate is the open-loop phase's fixed send rate (ops/s over both
	// connections). Unpipelined requests cost the 2-core seed host several
	// times the CPU of pipelined ones, so half of the closed-loop capacity
	// would run the open loop near saturation, where its median latency
	// does not repeat from run to run; the rates are set well below that.
	OpenRate float64
	// ClosedRate sizes the closed-loop phase: its op count is about what
	// the seed completes in closedShare of the run.
	ClosedRate float64
}

// openShare and closedShare split the run length between the two phases.
const (
	openShare   = 0.3
	closedShare = 0.7
)

// Specs lists the workloads by name.
var Specs = map[string]Spec{
	// 100% SET of fresh keys into an empty store: the write path (batcher,
	// pool transaction, journal, fresh allocation, fences) with chains that
	// grow as the store fills; the read path stays idle.
	"ingest": {OpenRate: 4000, ClosedRate: 30000},
	// 100% zipf GET over 65,536 preloaded tenant-prefixed keys: the front
	// end, the seqlock read view and the chain walk, with zero fences.
	"lookup": {OpenRate: 5000, ClosedRate: 54000},
	// 50% GET / 40% SET / 10% DEL, zipf over a 4,096-key hot set: short
	// group-commit runs, reads racing commits, and allocator free/reuse.
	"mixed": {OpenRate: 3000, ClosedRate: 6000},
}

// Plan is a workload's complete, seeded request stream, per connection.
type Plan struct {
	Spec    Spec
	Preload [Conns][]Req // SETs that build the starting store (set-up)
	Open    [Conns][]Req // open-loop phase
	Closed  [Conns][]Req // closed-loop phase
}

// Ops counts the requests of one phase over all connections.
func Ops(phase [Conns][]Req) int {
	n := 0
	for _, reqs := range phase {
		n += len(reqs)
	}
	return n
}

// Lookup keyspace: 256 tenants × 256 ids, key = tenant<<40 | id. Connection
// c owns tenants [c*128, c*128+128).
const (
	lookupTenants = 256
	lookupIDs     = 256
	// mixedHotKeys is the mixed workload's hot set (both connections).
	mixedHotKeys = 4096
)

// NewPlan generates workload name's stream for seed, sized for a run of
// seconds. The same arguments always give the same plan.
func NewPlan(name string, seed int64, seconds float64) (*Plan, error) {
	spec, ok := Specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest, lookup or mixed)", name)
	}
	pl := &Plan{Spec: spec}
	perConn := func(rate, share float64) int {
		return int(math.Round(rate * seconds * share / Conns))
	}
	nOpen, nClosed := perConn(spec.OpenRate, openShare), perConn(spec.ClosedRate, closedShare)
	for c := 0; c < Conns; c++ {
		// One source per connection, derived from the seed, so each
		// connection's stream does not depend on the other's length.
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		switch name {
		case "ingest":
			keys := freshKeys(rng, c, nOpen+nClosed)
			for i, k := range keys {
				r := Req{Kind: Set, Key: k, Val: rng.Uint64()}
				if i < nOpen {
					pl.Open[c] = append(pl.Open[c], r)
				} else {
					pl.Closed[c] = append(pl.Closed[c], r)
				}
			}
		case "lookup":
			keys := make([]uint64, 0, lookupTenants/Conns*lookupIDs)
			for t := c * lookupTenants / Conns; t < (c+1)*lookupTenants/Conns; t++ {
				for id := 0; id < lookupIDs; id++ {
					k := uint64(t)<<40 | uint64(id)
					keys = append(keys, k)
					pl.Preload[c] = append(pl.Preload[c], Req{Kind: Set, Key: k, Val: rng.Uint64()})
				}
			}
			z := newZipf(len(keys))
			gets := func(n int) []Req {
				out := make([]Req, n)
				for i := range out {
					out[i] = Req{Kind: Get, Key: keys[z.next(rng)]}
				}
				return out
			}
			pl.Open[c], pl.Closed[c] = gets(nOpen), gets(nClosed)
		case "mixed":
			keys := freshKeys(rng, c, mixedHotKeys/Conns)
			for _, k := range keys {
				pl.Preload[c] = append(pl.Preload[c], Req{Kind: Set, Key: k, Val: rng.Uint64()})
			}
			z := newZipf(len(keys))
			mix := func(n int) []Req {
				out := make([]Req, n)
				for i := range out {
					k := keys[z.next(rng)]
					switch p := rng.Intn(10); {
					case p < 5:
						out[i] = Req{Kind: Get, Key: k}
					case p < 9:
						out[i] = Req{Kind: Set, Key: k, Val: rng.Uint64()}
					default:
						out[i] = Req{Kind: Del, Key: k}
					}
				}
				return out
			}
			pl.Open[c], pl.Closed[c] = mix(nOpen), mix(nClosed)
		}
	}
	return pl, nil
}

// freshKeys draws n distinct uniformly random keys for connection c. The
// top bit names the owning connection, which keeps the halves disjoint
// without touching the low bits the bucket hash uses.
func freshKeys(rng *rand.Rand, c, n int) []uint64 {
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()>>1 | uint64(c)<<63
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// zipf draws ranks with YCSB's zipfian constant 0.99 (Gray et al.'s
// generator) and scrambles each rank to a key index with a fixed odd
// multiplier, so the hot keys are spread over the key list. The scramble
// does not depend on the seed: which keys are hot, and so how deep in
// their chains they sit, is part of the workload, while the seed varies
// the request sequence.
type zipf struct {
	n                   int
	theta, alpha, zetan float64
	eta                 float64
}

const zipfTheta = 0.99

func newZipf(n int) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), zipfTheta)
		}
		return s
	}
	z := &zipf{n: n, theta: zipfTheta, alpha: 1 / (1 - zipfTheta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/float64(n), 1-zipfTheta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	// n is a power of two for every workload, so an odd multiplier
	// permutes [0, n).
	return int((uint64(rank)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & uint64(z.n-1))
}
