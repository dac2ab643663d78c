package pool

import (
	"bytes"
	"math/bits"
	"testing"

	"corundum/internal/pmem"
)

// TestCreateCrashAttachClean cuts power right after Create returns: every
// byte Create wrote must already be durable, so the rebooted image passes
// fsck and the allocator checks with the same free space.
func TestCreateCrashAttachClean(t *testing.T) {
	p := newPool(t)
	free := p.FreeBytes()
	dev := p.Device()
	if !bytes.Equal(dev.DurableSnapshot(), dev.Bytes()) {
		t.Fatal("Create left stores that a power cut would lose")
	}
	dev.Crash()
	if err := Fsck(dev); err != nil {
		t.Fatalf("fsck after crash at end of Create: %v", err)
	}
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := p2.FreeBytes(); got != free {
		t.Fatalf("free bytes after crash = %d, want %d", got, free)
	}
}

// TestCreateFlushesScaleWithMetadata bounds Create's flushes by the
// metadata lines in front of the heap plus a constant per carved free
// block: formatting must not write back every heap line.
func TestCreateFlushesScaleWithMetadata(t *testing.T) {
	cfg := testConfig()
	cfg.Size = 64 << 20
	cfg.Mem = pmem.Options{}
	p, err := Create("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	flushes := p.Device().Stats().Flushes
	metaLines := p.geo.heapOff / pmem.CacheLineSize
	// A greedy carve yields at most one block per order per arena, and
	// rawPush flushes at most two lines per block.
	perBlock := uint64(2)
	blocks := uint64(cfg.Journals) * uint64(bits.Len64(p.geo.arenaHeap))
	heapLines := uint64(cfg.Journals) * p.geo.arenaHeap / pmem.CacheLineSize
	if bound := metaLines + perBlock*blocks; flushes > bound {
		t.Fatalf("Create issued %d flushes; want <= %d (metadata %d lines + %d per block × %d blocks); heap has %d lines",
			flushes, bound, metaLines, perBlock, blocks, heapLines)
	}
	t.Logf("Create: %d flushes, %d metadata lines, %d heap lines", flushes, metaLines, heapLines)
}
