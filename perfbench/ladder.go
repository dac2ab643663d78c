package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/journal"
	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// The traced ladder replays one seeded stream through successively deeper
// public entry points from a single goroutine, with a span around every
// call:
//
//	tcp      loopback TCP to an in-process server (a unit pipelined per round trip)
//	batcher  Server.Batcher().SubmitMany for writes; reads as in kv
//	kv       KVStore.Apply for writes, KVStore.GetView over pool.ReadView for reads
//	pool     one pool.Transaction per write unit, allocating, storing and freeing
//	         entry-sized payloads as KVStore does for those writes
//	pmem     pmem.Device.Persist of the same bytes, per write
//
// Every rung starts from the same store state, on its own pool with the
// OptaneDC device profile and the server's default options. The rungs
// take turns unit by unit, so a change in the shared host's speed during
// the replay reaches every rung alike. A layer's self time is its rung's
// time per op minus that of the rung below.
var rungNames = []string{"tcp", "batcher", "kv", "pool", "pmem"}

const (
	// ladderPerConn is how many closed-loop requests of each connection the
	// ladder replays.
	ladderPerConn = 8192
	ladderPool    = 32 << 20
	entrySize     = 32 // a KVStore chain entry
	// serverBuckets is corundum-server's default -buckets.
	serverBuckets = 4096
)

var optane = pmem.Options{Profile: pmem.OptaneDC}

// interleave merges the connections' streams round robin, up to perConn
// requests of each (perConn < 0 takes all). It is the ladder's stream order
// and the order the keyspace shape is computed in.
func interleave(ph [Conns][]Req, perConn int) []Req {
	var out []Req
	for i := 0; ; i++ {
		added := false
		for c := 0; c < Conns; c++ {
			if i < len(ph[c]) && (perConn < 0 || i < perConn) {
				out = append(out, ph[c][i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

// unit is a maximal run of consecutive reads or writes, at most Window
// long: what a pipelining connection hands the server between two points
// where a GET forces the pending writes out.
type unit struct {
	first, n int
	read     bool
}

func units(s []Req) []unit {
	var us []unit
	for i := 0; i < len(s); {
		u := unit{first: i, read: s[i].isRead()}
		for i < len(s) && s[i].isRead() == u.read && i-u.first < Window {
			i++
		}
		u.n = i - u.first
		us = append(us, u)
	}
	return us
}

// RungResult is one rung's replay: the summed durations of its call spans
// by op class, and the device's counter deltas over the replay.
type RungResult struct {
	Name            string
	ReadNS, WriteNS int64
	Dev             pmem.OpCounts
}

// LadderResult is the whole traced ladder.
type LadderResult struct {
	Reads, Writes int
	Rungs         []RungResult
	// Slab allocator hits and misses on the tcp rung's pool.
	SlabHits, SlabMisses uint64
	// Time the tcp rung's calls took without and with tracing.
	UntracedNS, TracedNS int64
	Self                 map[string]int64
	Spans                int
}

func (l *LadderResult) rung(name string) RungResult {
	for _, r := range l.Rungs {
		if r.Name == name {
			return r
		}
	}
	return RungResult{Name: name}
}

// ladder holds the replayed stream and the starting state.
type ladder struct {
	preload []Req
	stream  []Req
	units   []unit
	tr      *Tracer
}

// rung is one ladder level, set up and preloaded. step replays one unit,
// recording its spans under parent.
type rung struct {
	name  string
	dev   *pmem.Device
	pool  *pool.Pool // the tcp rung's, for its slab counters
	step  func(u unit, parent int) error
	close func()
}

func runLadder(pl *Plan, tr *Tracer) (*LadderResult, error) {
	l := &ladder{
		preload: interleave(pl.Preload, -1),
		stream:  interleave(pl.Closed, ladderPerConn),
		tr:      tr,
	}
	l.units = units(l.stream)
	res := &LadderResult{}
	for _, r := range l.stream {
		if r.isRead() {
			res.Reads++
		} else {
			res.Writes++
		}
	}
	// The tcp rung has an untraced twin on a server of its own, replayed in
	// turn with it; the gap between their times is the tracing overhead.
	var rungs []*rung
	defer func() {
		for _, r := range rungs {
			r.close()
		}
	}()
	for _, mk := range []func() (*rung, error){
		func() (*rung, error) { return l.tcp(l.tr) },
		func() (*rung, error) { return l.tcp(NewTracer(false)) },
		l.batcher, l.kv, l.pool, l.pmem,
	} {
		r, err := mk()
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, r)
	}
	const traced, untraced = 0, 1 // indexes of the two tcp replays
	st0 := make([]pmem.Stats, len(rungs))
	roots := make([]int, len(rungs))
	for i, r := range rungs {
		st0[i] = r.dev.Stats()
		roots[i] = -1
		if i != untraced {
			roots[i] = tr.Begin("rung."+r.name, -1, 0)
		}
	}
	slab0h, slab0m := slabTotals(rungs[traced].pool)
	order := make([]int, len(rungs))
	for k, u := range l.units {
		// Alternate which tcp replay goes first, so neither gains from
		// following the other.
		for i := range order {
			order[i] = i
		}
		if k%2 == 1 {
			order[traced], order[untraced] = untraced, traced
		}
		for _, i := range order {
			start := time.Now()
			if err := rungs[i].step(u, roots[i]); err != nil {
				return nil, fmt.Errorf("%s rung: %w", rungs[i].name, err)
			}
			switch i {
			case traced:
				res.TracedNS += int64(time.Since(start))
			case untraced:
				res.UntracedNS += int64(time.Since(start))
			}
		}
	}
	for i, r := range rungs {
		if i == untraced {
			continue
		}
		tr.End(roots[i])
		res.Rungs = append(res.Rungs, RungResult{Name: r.name, Dev: devDelta(st0[i], r.dev.Stats())})
	}
	h, m := slabTotals(rungs[traced].pool)
	res.SlabHits, res.SlabMisses = h-slab0h, m-slab0m
	isRead := func(op int) bool { return l.stream[op].isRead() }
	for i := range res.Rungs {
		res.Rungs[i].ReadNS, res.Rungs[i].WriteNS = RungTimes(tr.Spans(), "rung."+res.Rungs[i].Name, isRead)
	}
	res.Self = SelfTimes(tr.Spans())
	res.Spans = len(tr.Spans())
	return res, nil
}

func newPool() (*pool.Pool, error) {
	return pool.Create("", pool.Config{Size: ladderPool, Mem: optane})
}

// devDelta is b - a.
func devDelta(a, b pmem.Stats) pmem.OpCounts {
	return pmem.OpCounts{
		Writes:     b.Writes - a.Writes,
		Flushes:    b.Flushes - a.Flushes,
		Fences:     b.Fences - a.Fences,
		FlushNanos: b.FlushNanos - a.FlushNanos,
		FenceNanos: b.FenceNanos - a.FenceNanos,
	}
}

// slabTotals sums the slab allocator's hits and misses over p's arenas.
func slabTotals(p *pool.Pool) (hits, misses uint64) {
	for i := 0; i < p.Journals(); i++ {
		st := p.ArenaSlabStats(i)
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// preloaded returns a model holding the preload's keys.
func (l *ladder) preloaded() *Model {
	m := NewModel()
	for _, r := range l.preload {
		m.Check(r, Outcome{})
	}
	return m
}

func toOps(reqs []Req) []workloads.Op {
	ops := make([]workloads.Op, len(reqs))
	for i, r := range reqs {
		ops[i] = workloads.Op{Del: r.Kind == Del, Key: r.Key, Val: r.Val}
	}
	return ops
}

// memServer is a server over a fresh in-memory pool.
func memServer() (*pool.Pool, *server.Server, error) {
	p, err := newPool()
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(p, server.Options{})
	if err != nil {
		p.Close()
		return nil, nil, err
	}
	return p, srv, nil
}

// tcp sends each unit over loopback TCP to an in-process server and reads
// its replies, recording spans on tr.
func (l *ladder) tcp(tr *Tracer) (*rung, error) {
	p, srv, err := memServer()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		p.Close()
		return nil, err
	}
	go srv.Serve(ln)
	r := &rung{name: "tcp", dev: p.Device(), pool: p}
	c, err := dial(ln.Addr().String())
	if err != nil {
		srv.Close()
		p.Close()
		return nil, err
	}
	r.close = func() {
		c.Close()
		srv.Close()
		p.Close()
	}
	m := NewModel()
	if t, err := closedLoop(c, l.preload, m); err != nil || t.failed > 0 {
		r.close()
		return nil, fmt.Errorf("tcp rung preload: %d failed, %v", t.failed, err)
	}
	e := encode(l.stream)
	r.step = func(u unit, parent int) error {
		id := tr.Begin("tcp.unit", parent, u.first)
		if _, err := c.c.Write(e.buf[e.off[u.first]:e.off[u.first+u.n]]); err != nil {
			return err
		}
		t, err := readReplies(c, l.stream[u.first:u.first+u.n], m, nil)
		tr.End(id)
		if err == nil && t.failed > 0 {
			err = fmt.Errorf("%d requests refused", t.failed)
		}
		return err
	}
	return r, nil
}

// getRead serves one read unit through GetView, one span per call.
func (l *ladder) getRead(kv *workloads.KVStore, v workloads.ReadView, u unit, parent int, m *Model) error {
	for op := u.first; op < u.first+u.n; op++ {
		r := l.stream[op]
		id := l.tr.Begin("kv.get", parent, op)
		val, found, err := kv.GetView(v, r.Key)
		l.tr.End(id)
		if err != nil {
			return err
		}
		if err := m.Check(r, Outcome{Found: found, Val: val}); err != nil {
			return &wrongReply{err}
		}
	}
	return nil
}

func (l *ladder) batcher() (*rung, error) {
	p, srv, err := memServer()
	if err != nil {
		return nil, err
	}
	r := &rung{name: "batcher", dev: p.Device(), close: func() {
		srv.Close()
		p.Close()
	}}
	fail := func(err error) (*rung, error) {
		r.close()
		return nil, fmt.Errorf("batcher rung: %w", err)
	}
	b := srv.Batcher()
	for i := 0; i < len(l.preload); i += Window {
		for _, res := range b.SubmitMany(toOps(l.preload[i:min(i+Window, len(l.preload))])) {
			if res.Err != nil {
				return fail(res.Err)
			}
		}
	}
	// A second handle on the server's store, for the reads.
	kv, err := workloads.AttachKVStore(corundumeng.Wrap(p))
	if err != nil {
		return fail(err)
	}
	v, err := p.ReadView()
	if err != nil {
		return fail(err)
	}
	m := l.preloaded()
	r.step = func(u unit, parent int) error {
		if u.read {
			return l.getRead(kv, v, u, parent, m)
		}
		reqs := l.stream[u.first : u.first+u.n]
		id := l.tr.Begin("batcher.submit", parent, u.first)
		out := b.SubmitMany(toOps(reqs))
		l.tr.End(id)
		for i, res := range out {
			if res.Err != nil {
				return res.Err
			}
			if err := m.Check(reqs[i], Outcome{Found: res.Removed}); err != nil {
				return &wrongReply{err}
			}
		}
		return nil
	}
	return r, nil
}

func (l *ladder) kv() (*rung, error) {
	p, err := newPool()
	if err != nil {
		return nil, err
	}
	r := &rung{name: "kv", dev: p.Device(), close: func() { p.Close() }}
	fail := func(err error) (*rung, error) {
		r.close()
		return nil, fmt.Errorf("kv rung: %w", err)
	}
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), serverBuckets)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < len(l.preload); i += Window {
		if _, err := kv.Apply(toOps(l.preload[i:min(i+Window, len(l.preload))])); err != nil {
			return fail(err)
		}
	}
	v, err := p.ReadView()
	if err != nil {
		return fail(err)
	}
	m := l.preloaded()
	r.step = func(u unit, parent int) error {
		if u.read {
			return l.getRead(kv, v, u, parent, m)
		}
		reqs := l.stream[u.first : u.first+u.n]
		id := l.tr.Begin("kv.apply", parent, u.first)
		out, err := kv.Apply(toOps(reqs))
		l.tr.End(id)
		if err != nil {
			return err
		}
		for i, removed := range out {
			if err := m.Check(reqs[i], Outcome{Found: removed}); err != nil {
				return &wrongReply{err}
			}
		}
		return nil
	}
	return r, nil
}

// entry is the 32-byte payload an insert stores: the key, next, value and
// checksum slots of a KVStore entry.
func entry(r Req) []byte {
	var b [entrySize]byte
	binary.LittleEndian.PutUint64(b[0:], r.Key)
	binary.LittleEndian.PutUint64(b[16:], r.Val)
	return b[:]
}

// valSlot is the value and checksum pair an update stores in place, at
// valOff within the entry, as KVStore's overwrite does.
const valOff, valSize = 16, 16

func valSlot(r Req) []byte { return entry(r)[valOff:] }

// pool replays the writes as the allocator and journal traffic KVStore
// generates for them, without the chain walk and bucket slot updates: a
// SET of an absent key allocates an entry and stores it, a SET of a present
// key logs and stores the value in place, a DEL of a present key frees the
// entry. One pool.Transaction per write unit.
func (l *ladder) pool() (*rung, error) {
	p, err := newPool()
	if err != nil {
		return nil, err
	}
	dev := p.Device()
	r := &rung{name: "pool", dev: dev, close: func() { p.Close() }}
	// at maps each present key to its entry's offset.
	at := make(map[uint64]uint64)
	apply := func(reqs []Req, first, parent int) error {
		return p.Transaction(func(j *journal.Journal) error {
			for i, r := range reqs {
				op := first + i
				off, present := at[r.Key]
				switch {
				case r.Kind == Set && !present:
					a := l.tr.Begin("alloc.alloc", parent, op)
					off, err := j.Alloc(entrySize)
					l.tr.End(a)
					if err != nil {
						return err
					}
					w := l.tr.Begin("journal.log", parent, op)
					err = j.DataLog(off, entrySize)
					if err == nil {
						pmem.StoreBytes(dev.Bytes(), off, entry(r))
					}
					l.tr.End(w)
					if err != nil {
						return err
					}
					at[r.Key] = off
				case r.Kind == Set:
					w := l.tr.Begin("journal.log", parent, op)
					err := j.DataLog(off+valOff, valSize)
					if err == nil {
						pmem.StoreBytes(dev.Bytes(), off+valOff, valSlot(r))
					}
					l.tr.End(w)
					if err != nil {
						return err
					}
				case r.Kind == Del && present:
					a := l.tr.Begin("alloc.free", parent, op)
					err := j.DropLog(off, entrySize)
					l.tr.End(a)
					if err != nil {
						return err
					}
					delete(at, r.Key)
				}
			}
			return nil
		})
	}
	if l.hasWrites() {
		for i := 0; i < len(l.preload); i += Window {
			if err := apply(l.preload[i:min(i+Window, len(l.preload))], 0, -1); err != nil {
				r.close()
				return nil, fmt.Errorf("pool rung preload: %w", err)
			}
		}
	}
	r.step = func(u unit, parent int) error {
		if u.read {
			return nil
		}
		id := l.tr.Begin("pool.tx", parent, u.first)
		err := apply(l.stream[u.first:u.first+u.n], u.first, id)
		l.tr.End(id)
		return err
	}
	return r, nil
}

// pmem persists the bytes the pool rung stores, one Persist per write: a
// whole entry for an insert, the value pair for an update, nothing for a
// delete.
func (l *ladder) pmem() (*rung, error) {
	// Each key gets its own cache line.
	line := make(map[uint64]uint64)
	next := uint64(0)
	for _, r := range l.preload {
		if _, ok := line[r.Key]; !ok {
			line[r.Key] = next
			next += pmem.CacheLineSize
		}
	}
	size := (len(line) + len(l.stream) + 1) * pmem.CacheLineSize
	dev := pmem.New(size, optane)
	r := &rung{name: "pmem", dev: dev, close: func() {}}
	r.step = func(u unit, parent int) error {
		if u.read {
			return nil
		}
		for op := u.first; op < u.first+u.n; op++ {
			req := l.stream[op]
			off, present := line[req.Key]
			switch {
			case req.Kind == Set && !present:
				off = next
				next += pmem.CacheLineSize
				line[req.Key] = off
				id := l.tr.Begin("pmem.persist", parent, op)
				dev.Write(off, entry(req))
				dev.Persist(off, entrySize)
				l.tr.End(id)
			case req.Kind == Set:
				id := l.tr.Begin("pmem.persist", parent, op)
				dev.Write(off+valOff, valSlot(req))
				dev.Persist(off+valOff, valSize)
				l.tr.End(id)
			case req.Kind == Del && present:
				delete(line, req.Key)
			}
		}
		return nil
	}
	return r, nil
}

// hasWrites reports whether the stream mutates anything.
func (l *ladder) hasWrites() bool {
	for _, r := range l.stream {
		if !r.isRead() {
			return true
		}
	}
	return false
}
