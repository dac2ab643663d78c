// Lock-free GET/SCAN: the seqlock read path.
//
// The group-commit batcher holds a shard's writer lock across the whole
// journal-flush + fence + apply window, so under the classic RWMutex
// discipline one slow fence stalls every reader on the shard. This file
// removes the reader side of that convoy: GET and SCAN first attempt an
// optimistic walk through pool.ReadView — no pool mutex, no journal
// slot, no shard lock — bracketed by the shard's commit sequence.
//
// The protocol (DESIGN §6.9):
//
//  1. snapshot the sequence; odd means a writer is inside its critical
//     section — yield and re-sample;
//  2. re-check key ownership inside the bracket (cursor advances and
//     layout swaps that affect this shard's keys happen under its
//     writer lock, the same invariant the RLock path relies on);
//  3. walk the structure through the view, CRC-verifying every group
//     and entry (workloads.GetView/ScanRangeView);
//  4. re-read the sequence: unchanged-and-even proves no writer
//     critical section overlapped the walk, so what was read is
//     committed state.
//
// Conflicts retry with bounded spins; persistent conflict — or any
// anomaly observed inside a *stable* bracket (which lock-free reads
// cannot adjudicate: it is either media damage or a pointer into
// recycled memory) — falls back to the locked path, whose transactional
// verified read is the authority. Writers can therefore never livelock
// readers, and real corruption still surfaces as ErrDataCorrupt, never
// as a silent wrong value.
package server

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// storeLock is a shard's reader/writer lock with a seqlock commit
// sequence fused on: the sequence is odd exactly while a writer holds
// the lock. Every existing Lock/Unlock call site (batcher commits,
// migration fences, restore swaps, replication applies) brackets its
// critical section automatically, so the lock-free readers' validation
// covers every mutation path, not just batched commits.
type storeLock struct {
	mu  sync.RWMutex
	seq atomic.Uint64
}

func (l *storeLock) Lock() {
	l.mu.Lock()
	l.seq.Add(1) // now odd: readers must not trust what they see
}

func (l *storeLock) Unlock() {
	l.seq.Add(1) // even again: heap is stable committed state
	l.mu.Unlock()
}

func (l *storeLock) RLock()   { l.mu.RLock() }
func (l *storeLock) RUnlock() { l.mu.RUnlock() }

// readSeq samples the commit sequence (odd = commit in flight).
func (l *storeLock) readSeq() uint64 { return l.seq.Load() }

// ReadPathStats reports the seqlock read path's counters: reads served
// lock-free (no store lock taken), bracket conflicts that retried, and
// reads that fell back to the RLock path (tests, benchmarks, STATS).
func (s *Server) ReadPathStats() (lockFree, retries, fallbacks uint64) {
	return s.m.readsLockFree.Value(), s.m.readRetries.Value(), s.m.readFallbacks.Value()
}

// readSpins bounds how many bracket attempts one lock-free read makes
// before falling back to the RLock path. Spins are cheap (a yield and a
// re-sample); the bound only matters under sustained write pressure,
// where the locked path's fairness takes over.
const readSpins = 8

// viewGet is one key's lock-free read attempt on sh. Outcomes:
//   - served: val/found are committed state (bracket validated);
//   - rerouted: ownership moved off sh inside a stable bracket — the
//     caller re-routes, exactly like getOnShard's !stable return;
//   - neither: conflicts exhausted the spin budget, the shard has no
//     view, or an anomaly needs the locked path to adjudicate.
func (s *Server) viewGet(sh *shard, o int, key uint64) (served, rerouted bool, val uint64, found bool) {
	v := sh.view
	if v == nil || sh.kv == nil {
		return false, false, 0, false
	}
	for spin := 0; spin < readSpins; spin++ {
		s0 := sh.lock.readSeq()
		if s0&1 != 0 {
			runtime.Gosched()
			continue
		}
		if s.st().owner(key) != o {
			if sh.lock.readSeq() == s0 {
				return false, true, 0, false
			}
			s.m.readRetries.Inc()
			continue
		}
		val, found, walked, err := sh.kv.GetViewWalked(v, key)
		if sh.lock.readSeq() != s0 {
			s.m.readRetries.Inc()
			continue
		}
		if err != nil {
			// Stable bracket, yet the walk failed: not a racing commit.
			// Could be media damage — the locked verified read decides.
			return false, false, 0, false
		}
		sh.getWalked.Add(walked)
		return true, false, val, found
	}
	return false, false, 0, false
}

// viewScan is one shard's lock-free scan attempt, appending owned pairs
// to out (restoring it to its base length before each retry). A scan's
// bracket spans the whole walk, so any concurrent commit invalidates
// the attempt; the spin budget is shared with viewGet and persistent
// write pressure falls back to the locked scan.
func (s *Server) viewScan(st *routeState, sh *shard, limit int, pairs []uint64) (served bool, out []uint64) {
	v := sh.view
	if v == nil || sh.kv == nil {
		return false, pairs
	}
	base := len(pairs)
	out = pairs
	for spin := 0; spin < readSpins; spin++ {
		s0 := sh.lock.readSeq()
		if s0&1 != 0 {
			runtime.Gosched()
			continue
		}
		out = out[:base]
		err := sh.kv.ScanView(v, func(k, vv uint64) bool {
			if st.rs != nil && st.owner(k) != sh.id {
				return true
			}
			out = append(out, k, vv)
			return limit == 0 || len(out)/2 < limit
		})
		if sh.lock.readSeq() != s0 {
			s.m.readRetries.Inc()
			continue
		}
		if err != nil {
			return false, out[:base]
		}
		return true, out
	}
	return false, out[:base]
}
