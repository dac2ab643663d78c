package journal

import (
	"errors"
	"testing"

	"corundum/internal/pmem"
)

// TestLogWordsOneFence: a LogWords run snapshots every word under one
// journal fence, later DataLog calls on those words dedup, and commit
// flushes exactly the words the transaction stored to — a word changed
// and changed back included, since the cache may have written its middle
// value back to the media.
func TestLogWordsOneFence(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	cells := make([]uint64, 8) // one word per cache line
	for i := range cells {
		off, err := f.heap.AllocEx(0, pmem.CacheLineSize, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = off
		f.write8(off, uint64(i))
		f.dev.MarkDirty(off, 8)
		f.dev.Persist(off, 8)
	}

	fences := func(sc pmem.Scope) uint64 { return f.dev.Stats().ByScope[sc].Fences }
	j.Begin()
	before := fences(pmem.ScopeJournal)
	if err := j.LogWords(append(cells, cells[0], cells[3])); err != nil { // repeats are skipped
		t.Fatal(err)
	}
	if got := fences(pmem.ScopeJournal) - before; got != 1 {
		t.Fatalf("LogWords of %d words issued %d journal fences, want 1", len(cells), got)
	}
	if got := len(j.live); got != len(cells) {
		t.Fatalf("run logged %d entries, want %d", got, len(cells))
	}
	for _, c := range cells[:3] {
		if err := j.DataLog(c, 8); err != nil {
			t.Fatal(err)
		}
		f.write8(c, 100+c)
	}
	if got := fences(pmem.ScopeJournal) - before; got != 1 {
		t.Fatalf("DataLog on pre-logged words appended again: %d journal fences", got)
	}
	if err := j.DataLog(cells[3], 8); err != nil {
		t.Fatal(err)
	}
	f.write8(cells[3], 77) // changed and changed back: still flushed
	f.write8(cells[3], 3)
	f.dev.SetFlightRecorder(1 << 10)
	if !j.End() {
		t.Fatal("commit failed")
	}
	flushed := map[uint64]bool{}
	for _, ev := range f.dev.FlightEvents() {
		if ev.Op == pmem.OpFlush {
			flushed[ev.Off/pmem.CacheLineSize] = true
		}
	}
	for i, c := range cells {
		if got, want := flushed[c/pmem.CacheLineSize], i <= 3; got != want {
			t.Errorf("cell %d: commit flushed its line = %v, want %v (only stored-to words)", i, got, want)
		}
	}
	f.reopen(t)
	for i, c := range cells {
		want := uint64(i)
		if i < 3 {
			want = 100 + c
		}
		if got := f.read8(c); got != want {
			t.Fatalf("after crash: cell %d = %d, want %d", i, got, want)
		}
	}
}

// TestLogWordsRunSplitsAtChainedPage: a run larger than the head buffer
// splits across chained pages instead of failing, and a power cut at any
// device op of the run or the transaction leaves every word all-or-
// nothing, with no page leaked.
func TestLogWordsRunSplitsAtChainedPage(t *testing.T) {
	for crashAt := 1; ; crashAt += 5 {
		f := chainFixture(t)
		j := f.js[0]
		cells := makeCells(t, f, 100) // 100 entries of 32 bytes: three 1 KiB segments' worth
		inUse := f.heap.b.InUse()

		var count int
		f.dev.SetFaultInjector(func(op pmem.Op) bool {
			count++
			return count == crashAt
		})
		finished := false
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrInjectedCrash {
					panic(r)
				}
			}()
			j.Begin()
			if err := j.LogWords(cells); err != nil {
				t.Fatalf("LogWords: %v", err)
			}
			if len(j.pages) == 0 {
				t.Fatal("the run never chained a page")
			}
			for _, c := range cells {
				if err := j.DataLog(c, 8); err != nil {
					t.Fatal(err)
				}
				f.write8(c, 5)
			}
			j.End()
			finished = true
		}()
		f.dev.SetFaultInjector(nil)

		f.reopen(t)
		first := f.read8(cells[0])
		if finished && first != 5 {
			t.Fatalf("crashAt=%d: committed run lost: cell = %d", crashAt, first)
		}
		for _, c := range cells {
			if got := f.read8(c); got != first {
				t.Fatalf("crashAt=%d: torn run: cell %#x = %d, first = %d", crashAt, c, got, first)
			}
		}
		if got := f.heap.b.InUse(); got != inUse {
			t.Fatalf("crashAt=%d: pages leaked: %d -> %d", crashAt, inUse, got)
		}
		if finished && crashAt > count {
			return
		}
	}
}

// TestLogWordsChangedBackWordSurvivesEviction: a pre-logged word changed
// and changed back in one transaction is flushed at commit. The cache may
// write the middle value back at any time; skipping the flush because the
// bytes match the snapshot would leave that value on the media, with the
// journal retired and nothing left to undo it.
func TestLogWordsChangedBackWordSurvivesEviction(t *testing.T) {
	f := newFixture(t, 1)
	j := f.js[0]
	c := makeCells(t, f, 1)[0]
	orig := f.read8(c)

	j.Begin()
	if err := j.LogWords([]uint64{c}); err != nil {
		t.Fatal(err)
	}
	if err := j.DataLog(c, 8); err != nil {
		t.Fatal(err)
	}
	f.write8(c, orig+77)
	f.dev.MarkDirty(c, 8)
	f.dev.Persist(c, 8) // the cache evicts the line holding the middle value
	f.write8(c, orig)
	f.dev.MarkDirty(c, 8)
	if !j.End() {
		t.Fatal("commit failed")
	}
	f.reopen(t)
	if got := f.read8(c); got != orig {
		t.Fatalf("after crash: word = %d, want %d (the changed-back value)", got, orig)
	}
}

// TestLogWordsFailedRunLogsNothing: a run that cannot chain a page fails
// without registering any of its words as logged, so a later store to
// one of them is not mistaken for an undo-logged one.
func TestLogWordsFailedRunLogsNothing(t *testing.T) {
	f := chainFixture(t)
	j := f.js[0]
	cells := makeCells(t, f, 100) // outgrows the 1 KiB head buffer
	for {
		if _, err := f.heap.AllocEx(0, chainPageSize, nil, nil); err != nil {
			break // no room left for a continuation page
		}
	}
	j.Begin()
	defer func() {
		j.MarkAborted()
		j.End()
	}()
	if err := j.LogWords(cells); !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("LogWords with no room to chain returned %v, want ErrTxTooLarge", err)
	}
	for i, c := range cells {
		if j.Logged(c) {
			t.Fatalf("cell %d counts as logged after its run failed", i)
		}
	}
}
