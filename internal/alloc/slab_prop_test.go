package alloc

// Model-based property and fuzz tests for the slab layer: a random
// interleaving of allocations, frees, deferred-fence claims (committed
// and aborted), tuning changes, and crash-reopens is checked after every
// step against a shadow model. The invariants are the allocator's whole
// contract:
//
//   - conservation: InUse + FreeBytes == heap size, always;
//   - exactness: InUse == sum of model-live block sizes (no leak, no
//     double-alloc);
//   - structural: CheckConsistency holds, every live block IsAllocated,
//     and a reopen (redo replay + ledger replay + claim resolution)
//     reproduces the same state.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"corundum/internal/pmem"
)

// propModel is the shadow state a correct allocator must agree with.
type propModel struct {
	live    map[uint64]uint64 // off -> block size
	claims  []claimRec        // live-transaction claims, not yet settled
	epoch   uint64
	aborted map[uint16]bool // epochs whose transactions never committed
}

type claimRec struct {
	off, size uint64
	epoch     uint64
}

type propArena struct {
	t     *testing.T
	dev   *pmem.Device
	b     *Buddy
	model propModel
}

func newPropArena(t *testing.T) *propArena {
	t.Helper()
	meta := MetaSize(testHeap)
	dev := pmem.New(int(meta)+testHeap, pmem.Options{TrackCrash: true})
	b := Format(dev, 0, meta, testHeap)
	return &propArena{
		t:   t,
		dev: dev,
		b:   b,
		model: propModel{
			live:    make(map[uint64]uint64),
			aborted: make(map[uint16]bool),
			epoch:   1,
		},
	}
}

// sizes spans every slab class plus one beyond-slab order.
var propSizes = []uint64{1, 64, 100, 256, 1000, 4096, 8192}

func (p *propArena) check(stage string) {
	p.t.Helper()
	inUse, free := p.b.InUse(), p.b.FreeBytes()
	if inUse+free != testHeap {
		p.t.Fatalf("%s: conservation broken: inUse %d + free %d != heap %d",
			stage, inUse, free, testHeap)
	}
	var want uint64
	for _, sz := range p.model.live {
		want += sz
	}
	for _, c := range p.model.claims {
		want += c.size
	}
	if inUse != want {
		p.t.Fatalf("%s: in-use %d, model wants %d (leak or double-alloc)",
			stage, inUse, want)
	}
}

func (p *propArena) deepCheck(stage string) {
	p.t.Helper()
	p.check(stage)
	if err := p.b.CheckConsistency(); err != nil {
		p.t.Fatalf("%s: %v", stage, err)
	}
	for off, sz := range p.model.live {
		if !p.b.IsAllocated(off, sz) {
			p.t.Fatalf("%s: live block %#x size %d not allocated", stage, off, sz)
		}
	}
}

// step applies one operation selected by op with size/target entropy
// from arg. Returns false when the op was a no-op (so fuzz inputs that
// do nothing do not count as coverage).
func (p *propArena) step(op, arg byte) bool {
	p.t.Helper()
	m := &p.model
	switch op % 8 {
	case 0, 1: // alloc (weighted: the common op)
		size := propSizes[int(arg)%len(propSizes)]
		off, err := p.b.Alloc(size)
		if err != nil {
			return false // heap exhausted is legal under churn
		}
		if _, dup := m.live[off]; dup {
			p.t.Fatalf("alloc returned live block %#x twice", off)
		}
		m.live[off] = BlockSize(size)
	case 2, 3: // free (equally common, so the heap churns)
		off, ok := p.pickLive(arg)
		if !ok {
			return false
		}
		if err := p.b.Free(off, m.live[off]); err != nil {
			p.t.Fatalf("free %#x: %v", off, err)
		}
		delete(m.live, off)
	case 4: // claim, transaction commits
		if len(m.claims) > 0 {
			// RetireClaims recycles every live claim slot, so once a claim
			// is being held open for the crash (case 6) no later
			// transaction may settle — exactly the real lifecycle, where
			// pending claims can only belong to the crash victim.
			return p.claimUnsettled(arg)
		}
		size := propSizes[int(arg)%(len(propSizes)-1)] // slab classes only
		m.epoch++
		off, ok := p.b.AllocClaim(size, nil, 0, m.epoch)
		if !ok {
			return false // cold class: legal, caller falls back to Alloc
		}
		// The commit fence the journal would issue, then slot recycling.
		p.dev.Fence()
		p.b.RetireClaims()
		if _, dup := m.live[off]; dup {
			p.t.Fatalf("claim returned live block %#x twice", off)
		}
		m.live[off] = BlockSize(size)
	case 5: // claim, transaction aborts in-process
		if len(m.claims) > 0 {
			return p.claimUnsettled(arg)
		}
		size := propSizes[int(arg)%(len(propSizes)-1)]
		m.epoch++
		off, ok := p.b.AllocClaim(size, nil, 0, m.epoch)
		if !ok {
			return false
		}
		// The journal's rollback re-drives the free, then retires the slot.
		if err := p.b.Free(off, BlockSize(size)); err != nil {
			p.t.Fatalf("abort free %#x: %v", off, err)
		}
		p.b.RetireClaims()
		m.aborted[uint16(m.epoch)] = true
	case 6: // claim left unsettled: crash decides (see reopen)
		return p.claimUnsettled(arg)
	case 7: // retune the cache (includes the disable/ablation path)
		switch arg % 4 {
		case 0:
			p.b.SetSlabParams(0, 0) // drain + disable
		case 1:
			p.b.SetSlabParams(1, 1) // minimal: spill on every second park
		case 2:
			p.b.SetSlabParams(4, 8)
		default:
			p.b.SetSlabParams(defaultSlabRefill, defaultSlabCap)
		}
		// Unsettled claims survive SetSlabParams untouched; nothing to model.
	}
	p.check("after op")
	return true
}

// claimUnsettled claims a block and leaves the claim open for the next
// reopen to settle, as a crash mid-transaction would.
func (p *propArena) claimUnsettled(arg byte) bool {
	m := &p.model
	if len(m.claims) >= 4 {
		return false // bound in-flight claims like a real journal would
	}
	size := propSizes[int(arg)%(len(propSizes)-1)]
	m.epoch++
	off, ok := p.b.AllocClaim(size, nil, 0, m.epoch)
	if !ok {
		return false
	}
	m.claims = append(m.claims, claimRec{off: off, size: BlockSize(size), epoch: m.epoch})
	p.check("after unsettled claim")
	return true
}

func (p *propArena) pickLive(arg byte) (uint64, bool) {
	if len(p.model.live) == 0 {
		return 0, false
	}
	// Deterministic pick: nth key in sorted-by-offset order.
	var offs []uint64
	for off := range p.model.live {
		offs = append(offs, off)
	}
	// Selection without sort.Slice allocation churn: find the k-th
	// smallest by repeated min extraction is overkill; order by min.
	min := func(xs []uint64) (uint64, int) {
		best, bi := xs[0], 0
		for i, x := range xs {
			if x < best {
				best, bi = x, i
			}
		}
		return best, bi
	}
	k := int(arg) % len(offs)
	for i := 0; i < k; i++ {
		_, bi := min(offs)
		offs[bi] = offs[len(offs)-1]
		offs = offs[:len(offs)-1]
	}
	off, _ := min(offs)
	return off, true
}

// reopen crashes the device (everything flushed-or-fenced so far that
// made it to a fence survives; we fence first so the cut is clean),
// reattaches, and resolves unsettled claims with the model's verdicts.
func (p *propArena) reopen(commitPending bool) {
	p.t.Helper()
	m := &p.model
	// The fence stands in for the journal commit fence that would have
	// made the claims durable; without it a clean crash may drop them,
	// which is the eviction dimension the explore campaign covers.
	p.dev.Fence()
	p.dev.Crash()
	meta := MetaSize(testHeap)
	p.b = Open(p.dev, 0, meta, testHeap)
	if got, want := p.b.PendingClaimCount(), len(m.claims); got != want {
		p.t.Fatalf("reopen: %d pending claims, want %d", got, want)
	}
	committed := make(map[uint16]bool)
	if commitPending {
		for _, c := range m.claims {
			committed[uint16(c.epoch)] = true
		}
	}
	p.b.ResolveClaims(func(journal int, e16 uint16) bool {
		return !committed[e16]
	})
	for _, c := range m.claims {
		if commitPending {
			m.live[c.off] = c.size
		}
	}
	m.claims = nil
	p.deepCheck("after reopen")
}

// TestSlabPropertyQuick drives random op tapes through testing/quick:
// each tape interleaves allocs, frees, claims, retunes, and reopens, and
// must keep every allocator invariant at every step.
func TestSlabPropertyQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 24}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	prop := func(tape []byte, seed int64) bool {
		p := newPropArena(t)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i+1 < len(tape); i += 2 {
			p.step(tape[i], tape[i+1])
			if rng.Intn(64) == 0 {
				p.reopen(rng.Intn(2) == 0)
			}
		}
		p.reopen(true)
		p.reopen(false) // idempotence: a second recovery changes nothing
		return !t.Failed()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSlabChurnConservation is the targeted non-random variant: heavy
// same-class churn so the cache cycles through park, hit, refill, and
// spill repeatedly, with claims resolved both ways across reopens.
func TestSlabChurnConservation(t *testing.T) {
	p := newPropArena(t)
	p.b.SetSlabParams(4, 8)
	rng := rand.New(rand.NewSource(42))
	var total SlabStats // Open resets counters, so accumulate per round
	for round := 0; round < 40; round++ {
		for i := 0; i < 30; i++ {
			p.step(byte(rng.Intn(8)), byte(rng.Intn(256)))
		}
		st := p.b.SlabStats()
		total.Hits += st.Hits
		total.Frees += st.Frees
		total.Spills += st.Spills
		p.reopen(round%2 == 0)
		p.b.SetSlabParams(4, 8)
	}
	if total.Hits == 0 || total.Frees == 0 || total.Spills == 0 {
		t.Fatalf("churn never exercised the cache: %+v", total)
	}
}

// FuzzSlabOps lets the fuzzer own the op tape. Byte pairs decode to
// (op, arg); the 0xFF op byte is a reopen with the next byte's low bit
// choosing the pending-claim verdict.
func FuzzSlabOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 4, 2, 6, 1, 0xFF, 1, 2, 0, 0xFF, 0})
	f.Add([]byte{7, 0, 0, 5, 0, 5, 2, 0, 7, 3, 4, 4, 6, 2, 0xFF, 0})
	seed := make([]byte, 0, 120)
	for i := 0; i < 30; i++ {
		seed = append(seed, byte(i*5), byte(i*11), 6, byte(i), 0xFF, byte(i&1))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			t.Skip("tape too long")
		}
		p := newPropArena(t)
		for i := 0; i+1 < len(tape); i += 2 {
			if tape[i] == 0xFF {
				p.reopen(tape[i+1]&1 == 1)
				continue
			}
			p.step(tape[i], tape[i+1])
		}
		p.reopen(false)
	})
}

// TestSlabConcurrentHammer exercises the arena lock under -race: workers
// churn private blocks through the shared cache concurrently, then the
// main goroutine verifies global conservation and a clean reopen.
func TestSlabConcurrentHammer(t *testing.T) {
	p := newPropArena(t)
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []struct{ off, size uint64 }
			for i := 0; i < 300; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(mine))
					blk := mine[k]
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := p.b.Free(blk.off, blk.size); err != nil {
						done <- err
						return
					}
					continue
				}
				size := propSizes[rng.Intn(len(propSizes))]
				off, err := p.b.Alloc(size)
				if err != nil {
					continue
				}
				mine = append(mine, struct{ off, size uint64 }{off, BlockSize(size)})
			}
			for _, blk := range mine {
				if err := p.b.Free(blk.off, blk.size); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := p.b.InUse(); got != 0 {
		t.Fatalf("in-use %d after all frees, want 0", got)
	}
	if got := p.b.FreeBytes(); got != testHeap {
		t.Fatalf("free bytes %d, want %d", got, testHeap)
	}
	p.reopen(false)
}

// TestRefillMissCarvesOneBlock pins the refill carve. A warm arena's slab
// miss (default tuning, the journal's three seal words folded in) stocks
// defaultSlabRefill spares cut from ONE aligned block, and its redo batch
// holds at most 64 entries: one map byte and two ledger words per spare,
// one unlink-and-split for the carve, the caller's block, the seal and the
// checksums. Allocating the spares one by one staged about 100. The
// conservation model still holds through claiming every spare and
// freeing everything.
func TestRefillMissCarvesOneBlock(t *testing.T) {
	p := newPropArena(t)
	miss := func() (off uint64, redo []uint64) {
		t.Helper()
		p.dev.SetOpHook(func(op pmem.Op, sc pmem.Scope, n uint64) {
			// A redo commit is the one allocator write longer than a header.
			if op == pmem.OpWrite && sc == pmem.ScopeAllocRedo && n > logHeaderSize {
				redo = append(redo, (n-logHeaderSize)/entrySize)
			}
		})
		defer p.dev.SetOpHook(nil)
		off, err := p.b.AllocEx(Granule, nil, func(block uint64) []Update {
			return []Update{{Off: block + 16, Width: 8}, {Off: block + 24, Width: 8}, {Off: block + 32, Width: 8}}
		})
		if err != nil {
			t.Fatal(err)
		}
		p.model.live[off] = Granule
		return off, redo
	}
	claimAll := func() {
		for {
			p.model.epoch++
			off, ok := p.b.AllocClaim(Granule, nil, 0, p.model.epoch)
			if !ok {
				return
			}
			p.dev.Fence()
			p.b.RetireClaims()
			p.model.live[off] = Granule
		}
	}
	miss() // cold: the first carve splits the whole heap down
	claimAll()
	before := p.b.SlabStats()
	_, redo := miss()
	st := p.b.SlabStats()
	if st.Misses-before.Misses != 1 || st.Stocked-before.Stocked != defaultSlabRefill {
		t.Fatalf("miss stocked %d spares over %d misses, want %d over 1",
			st.Stocked-before.Stocked, st.Misses-before.Misses, defaultSlabRefill)
	}
	if len(redo) != 1 {
		t.Fatalf("miss committed %d redo batches, want 1", len(redo))
	}
	if redo[0] > 64 {
		t.Errorf("miss committed %d redo entries, want <= 64", redo[0])
	}
	span := uint64(defaultSlabRefill) * Granule
	var lo uint64 = 1<<64 - 1
	for _, blk := range p.b.slab.classes[0] {
		lo = min(lo, blk.off)
	}
	if (lo-p.b.heapOff)%span != 0 {
		t.Errorf("spares start at %#x, not aligned to the %d-byte carve", lo, span)
	}
	for _, blk := range p.b.slab.classes[0] {
		if blk.off < lo || blk.off >= lo+span {
			t.Errorf("spare %#x outside the carved block [%#x,%#x)", blk.off, lo, lo+span)
		}
	}
	p.deepCheck("after refill")
	claimAll()
	p.deepCheck("after claiming the spares")
	for off, sz := range p.model.live {
		if err := p.b.Free(off, sz); err != nil {
			t.Fatal(err)
		}
		delete(p.model.live, off)
	}
	p.deepCheck("after freeing everything")
	p.reopen(false)
}
