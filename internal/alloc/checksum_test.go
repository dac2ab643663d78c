package alloc

import (
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"corundum/internal/pmem"
)

func TestChecksumsHoldAcrossAllocFree(t *testing.T) {
	dev, b := newArena(t)
	if err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
		t.Fatalf("fresh arena: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	type block struct{ off, size uint64 }
	var live []block
	for i := 0; i < 200; i++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			if err := b.Free(live[k].off, live[k].size); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		} else {
			size := uint64(1 + rng.Intn(4096))
			off, err := b.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, block{off, size})
		}
		if err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
			t.Fatalf("after op %d: %v", i, err)
		}
	}
}

// The staged-checksum discipline must hold at EVERY crash point of an
// operation, including torn ones: after replay, the image verifies.
func TestChecksumsHoldAtEveryCrashPoint(t *testing.T) {
	meta := MetaSize(testHeap)
	for point := uint64(1); ; point++ {
		dev := pmem.New(int(meta)+testHeap, pmem.Options{TrackCrash: true})
		b := Format(dev, 0, meta, testHeap)
		off, err := b.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		base := dev.OpCount()
		dev.CrashAt(base + point)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != pmem.ErrInjectedCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := b.Free(off, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Alloc(64); err != nil {
				t.Fatal(err)
			}
		}()
		if !crashed {
			break // the whole sequence completed; every point is covered
		}
		dev.CrashTorn(int64(point)) // word-granularity tearing of the cut
		b2 := Open(dev, 0, meta, testHeap)
		if err := VerifyChecksums(dev, 0, meta, testHeap); err != nil {
			t.Fatalf("crash point %d: %v", point, err)
		}
		if err := b2.CheckConsistency(); err != nil {
			t.Fatalf("crash point %d: %v", point, err)
		}
	}
}

func TestVerifyChecksumsDetectsMapCorruption(t *testing.T) {
	dev, b := newArena(t)
	if _, err := b.Alloc(64); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the order map of a durably idle arena.
	dev.InjectBitFlip(b.mapOff+3, 0)
	err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap)
	if err == nil {
		t.Fatal("flipped map byte not detected")
	}
	if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not name the chunk: %v", err)
	}
}

func TestVerifyChecksumsDetectsHeadsCorruption(t *testing.T) {
	dev, b := newArena(t)
	dev.InjectBitFlip(b.headsOff+8*MinOrder, 5)
	if err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err == nil {
		t.Fatal("flipped free-head word not detected")
	}
}

func TestScrubChecksumsRepairsCorruptSlot(t *testing.T) {
	dev, b := newArena(t)
	// Corrupt the checksum slot itself: the structure is sound, so a
	// repairing scrub rewrites the slot instead of condemning the arena.
	dev.InjectBitFlip(b.headsCRCSlot(), 2)
	if err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err == nil {
		t.Fatal("corrupt checksum slot not detected")
	}
	repaired, err := b.ScrubChecksums(true)
	if err != nil {
		t.Fatalf("repairing scrub failed: %v", err)
	}
	if !repaired {
		t.Fatal("scrub did not report the repair")
	}
	if err := VerifyChecksums(dev, 0, MetaSize(testHeap), testHeap); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// readAt and crcThroughBytewise are the original per-byte checksum
// staging: every byte of the span is looked up through the batch, the
// first covering entry winning. They are the oracle crcThrough must match.
func (b *redoBatch) readAt(off uint64) byte {
	for i := range b.entries {
		e := &b.entries[i]
		if off >= e.off && off < e.off+uint64(e.width) {
			return byte(e.val >> (8 * (off - e.off)))
		}
	}
	return b.dev.Bytes()[off]
}

func (b *Buddy) crcThroughBytewise(batch *redoBatch, start, end uint64) uint32 {
	h := crc32.NewIEEE()
	for off := start; off < end; off++ {
		h.Write([]byte{batch.readAt(off)})
	}
	return h.Sum32()
}

// TestCRCThroughMatchesBytewiseOracle stages random batches of width-1 and
// width-8 entries, clustered so they overlap each other and straddle the
// heads and map-chunk boundaries, and requires the linear staging to hash
// every region exactly as the per-byte oracle does.
func TestCRCThroughMatchesBytewiseOracle(t *testing.T) {
	dev, b := newArena(t)
	rng := rand.New(rand.NewSource(7))
	type region struct{ start, end uint64 }
	regions := []region{{b.headsOff, b.headsOff + maxOrders*8}}
	for _, c := range []uint64{0, 1, 2, mapChunks(b.mapBytes) - 1} {
		start, end := b.chunkSpan(c)
		regions = append(regions, region{start, end})
	}
	// Entries land within a few bytes of these points, so they pile up.
	var hot []uint64
	for _, r := range regions {
		hot = append(hot, r.start, r.start+5, (r.start+r.end)/2, r.end-3, r.end)
	}
	batch := newBatch(dev, b.logOff)
	for trial := 0; trial < 400; trial++ {
		batch.reset()
		for n := rng.Intn(110); n > 0; n-- {
			off := hot[rng.Intn(len(hot))] + uint64(rng.Intn(17)) - 8
			if rng.Intn(2) == 0 {
				batch.stage1(off, byte(rng.Uint64()))
			} else {
				batch.stage8(off, rng.Uint64())
			}
		}
		for _, r := range regions {
			if got, want := b.crcThrough(batch, r.start, r.end), b.crcThroughBytewise(batch, r.start, r.end); got != want {
				t.Fatalf("trial %d, region [%#x,%#x): crcThrough %#x, oracle %#x (%d entries)",
					trial, r.start, r.end, got, want, len(batch.entries))
			}
		}
	}
}
