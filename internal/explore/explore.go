// Package explore implements exhaustive crash-point exploration for
// Corundum pools: where the torture package samples random crash points,
// explore enumerates EVERY device operation a deterministic workload
// issues, cuts power there, recovers, and verifies both the
// linearizability contract (the recovered state is the model after k or
// k+1 completed steps, where step k+1 was in flight) and the structural
// invariants (allocator consistency, pool fsck, workload shape). It then
// recursively injects crashes DURING recovery itself, to a configurable
// depth, because recovery code paths are exactly as obligated to be
// crash-atomic as forward execution (paper §5: "power failures may occur
// at any time, including during recovery").
//
// Exhaustiveness is affordable because of durable-state pruning: the
// durable image only changes at fences, so every crash point between two
// fences yields the same surviving image, and recovery outcome is a pure
// function of that image. Each unique image is recovered and verified
// once; repeats are counted as pruned. The pruning is sound because a
// completed (acked) step's commit record is durable by definition, so a
// given durable image can only ever be paired with one acknowledged step
// count consistent with its recovery outcome.
package explore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/obs"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// Config parameterizes one exploration run.
type Config struct {
	// Workload selects the structure under test: "kvstore" (alias
	// "hashmap"), "bst", or "btree"; "allocheavy" and "kvbatch" run the
	// kvstore under the allocator-churn and group-commit scripts.
	Workload string
	// Steps is the number of script mutations (default 8). Total crash
	// points grow roughly linearly with Steps.
	Steps int
	// Depth is how many nested crashes may be injected during recovery on
	// top of the initial workload crash (default 2; pass a negative value
	// for none — every crash recovers uninterrupted).
	Depth int
	// EvictionSeeds additionally explores each crash point with
	// CrashWithEviction under seeds 1..EvictionSeeds, modelling dirty
	// cache lines that happened to persist. Zero disables (default).
	EvictionSeeds int
	// Workers shards top-level crash points across this many goroutines,
	// each with its own device (default GOMAXPROCS, capped at 8).
	Workers int
	// PoolSize is the pool footprint (default 4 MiB).
	PoolSize int
	// MaxViolations stops the run after this many failures (default 8).
	MaxViolations int
	// AttachFn reopens a pool over a crashed device image. Defaults to
	// pool.Attach; tests substitute a wrapper to prove the explorer
	// catches recovery bugs.
	AttachFn func(dev *pmem.Device) (*pool.Pool, error)
	// Registry, when set, receives live explore_* counters.
	Registry *obs.Registry
	// Stats, when set, is updated live (for progress display); otherwise
	// Run allocates one internally. Read with atomic loads.
	Stats *Stats
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
	// FlightCap is the per-device flight-recorder capacity used for
	// violation dumps (default 4096: recovery may replay bulk slab
	// refill/spill batches of several hundred ops, and the CRASH marker
	// must stay in the ring through them).
	FlightCap int
	// SlabRefill and SlabCap, when either is non-zero, retune every
	// arena's slab cache (pool.SetSlabParams) after each attach, so the
	// tuning holds across the pristine build, the census, and every
	// replay. Tiny values (1 or 2) force refill, claim, park, and spill
	// batches INSIDE the explored crash window on short scripts, which is
	// how the allocator campaign reaches the slab layer's crash paths
	// without thousand-op scripts. SlabRefill < 0 disables the cache
	// entirely (the pre-slab ablation). Zero/zero keeps pool defaults.
	SlabRefill int
	SlabCap    int
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "kvstore"
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	if c.Depth < 0 {
		c.Depth = 0
	} else if c.Depth == 0 {
		c.Depth = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4 << 20
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = 8
	}
	if c.AttachFn == nil {
		c.AttachFn = pool.Attach
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	if c.FlightCap <= 0 {
		c.FlightCap = 4096
	}
	return c
}

// Stats are live exploration counters, safe for concurrent reads.
type Stats struct {
	// CrashPoints counts top-level (workload) crash points processed.
	CrashPoints atomic.Uint64
	// Explored counts terminal states recovered and verified.
	Explored atomic.Uint64
	// Pruned counts crash points whose durable image was already seen.
	Pruned atomic.Uint64
	// RecoveryCrashes counts crashes injected during recovery.
	RecoveryCrashes atomic.Uint64
	// Evictions counts eviction-variant crash replays.
	Evictions atomic.Uint64
	// Violations counts verification failures.
	Violations atomic.Uint64
	// TotalOps is the workload's op count (set once census completes).
	TotalOps atomic.Uint64
}

// Violation is one verification failure, with enough context to replay it
// deterministically: restore the pristine image, arm CrashAt at the
// crash point, then arm each trail entry during successive recoveries.
type Violation struct {
	// CrashPoint is the workload-relative op index of the initial cut.
	CrashPoint uint64
	// Trail holds recovery-relative op indices of nested cuts, outermost
	// first; empty means the failure occurred on plain recovery.
	Trail []uint64
	// EvictSeed is the CrashWithEviction seed, or 0 for a plain crash.
	EvictSeed int64
	// Acked is how many steps had completed when power was cut.
	Acked int
	// Err names the violated invariant.
	Err error
	// Flight is the device's flight-recorder dump at failure time.
	Flight string
}

func (v Violation) String() string {
	s := fmt.Sprintf("crash point %d (acked %d steps)", v.CrashPoint, v.Acked)
	if len(v.Trail) > 0 {
		s += fmt.Sprintf(" recovery trail %v", v.Trail)
	}
	if v.EvictSeed != 0 {
		s += fmt.Sprintf(" evict seed %d", v.EvictSeed)
	}
	return s + ": " + v.Err.Error()
}

// Result summarizes a completed exploration.
type Result struct {
	// TotalOps is the number of enumerated top-level crash points (one
	// per device op of the workload run).
	TotalOps uint64
	// Steps echoes the script length.
	Steps int
	// FenceOps are workload-relative op indices of the script's fences.
	FenceOps []uint64
	// IntervalPoints[i] is how many crash points fall in the i-th fence
	// interval (ops after fence i-1, up to and including fence i; the
	// last entry is the post-final-fence tail if non-empty). Exhaustive
	// enumeration makes every entry positive by construction; the CLI
	// asserts it anyway.
	IntervalPoints []uint64
	// Stats is the final counter snapshot source.
	Stats *Stats
	// Violations holds up to MaxViolations failures, with flight dumps.
	Violations []Violation
}

type shared struct {
	cfg      Config
	def      workloadDef
	script   []scriptOp
	models   []map[uint64]uint64
	pristine []byte

	// inUseByStep[k] is the heap's in-use byte count after k completed
	// steps of a clean run (recorded during census). Replays are
	// deterministic, so a recovered state that matches models[k] must
	// also sit at exactly inUseByStep[k]: anything higher is a leak,
	// anything lower a double-free or lost allocation.
	inUseByStep []uint64

	seen  sync.Map // durable-image hash -> struct{}
	stats *Stats

	mu    sync.Mutex
	viols []Violation
	stop  atomic.Bool
}

// Run explores every crash point of the configured workload. It returns
// an error only for infrastructure failures (bad config, setup failure);
// verification failures are reported as Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	def, err := workloadFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	script, models := scriptFor(cfg.Workload, cfg.Steps)
	sh := &shared{cfg: cfg, def: def, script: script, models: models, stats: cfg.Stats}
	if sh.stats == nil {
		sh.stats = &Stats{}
	}
	if cfg.Registry != nil {
		registerMetrics(cfg.Registry, sh.stats)
	}

	if err := sh.buildPristine(); err != nil {
		return nil, err
	}
	T, fences, err := sh.census()
	if err != nil {
		return nil, err
	}
	sh.stats.TotalOps.Store(T)
	cfg.Log("explore: workload=%s steps=%d ops=%d fences=%d depth=%d workers=%d evict-seeds=%d",
		cfg.Workload, cfg.Steps, T, len(fences), cfg.Depth, cfg.Workers, cfg.EvictionSeeds)

	var wg sync.WaitGroup
	for wid := 0; wid < cfg.Workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := sh.newWorker()
			for m := uint64(wid + 1); m <= T; m += uint64(cfg.Workers) {
				if sh.stop.Load() {
					return
				}
				w.explorePoint(m)
			}
		}(wid)
	}
	wg.Wait()

	res := &Result{
		TotalOps:       T,
		Steps:          cfg.Steps,
		FenceOps:       fences,
		IntervalPoints: intervalPoints(T, fences),
		Stats:          sh.stats,
	}
	sh.mu.Lock()
	res.Violations = sh.viols
	sh.mu.Unlock()
	return res, nil
}

// buildPristine formats a pool, runs workload setup, and captures the
// durable image every exploration replays from.
func (sh *shared) buildPristine() error {
	p, err := pool.Create("", pool.Config{
		Size:       sh.cfg.PoolSize,
		Journals:   2,
		JournalCap: 16 << 10,
		Mem:        pmem.Options{TrackCrash: true},
	})
	if err != nil {
		return err
	}
	sh.tune(p)
	if _, err := sh.def.setup(corundumeng.Wrap(p)); err != nil {
		return fmt.Errorf("explore: workload setup: %w", err)
	}
	// Setup is committed transactions only, so the durable image is
	// complete; exploration effectively starts from "power lost right
	// after setup was acknowledged".
	sh.pristine = p.Device().DurableSnapshot()
	return nil
}

// tune applies the configured slab parameters to a freshly attached
// pool. Caches start cold, so the call itself issues no device ops and
// cannot perturb the crash-point universe; only subsequent allocator
// behaviour changes, identically in census and every replay.
func (sh *shared) tune(p *pool.Pool) {
	if sh.cfg.SlabRefill == 0 && sh.cfg.SlabCap == 0 {
		return
	}
	refill := sh.cfg.SlabRefill
	if refill < 0 {
		refill = 0 // pool.SetSlabParams(<1, _) disables the cache
	}
	p.SetSlabParams(refill, sh.cfg.SlabCap)
}

// census replays the script once, uninterrupted, recording the total op
// count and each fence's workload-relative op index. Replays are
// deterministic, so these indices are exact for every later run.
func (sh *shared) census() (T uint64, fences []uint64, err error) {
	w := sh.newWorker()
	w.dev.RestoreDurable(sh.pristine)
	p, err := sh.cfg.AttachFn(w.dev)
	if err != nil {
		return 0, nil, fmt.Errorf("explore: census attach: %w", err)
	}
	sh.tune(p)
	st, err := sh.def.attach(corundumeng.Wrap(p))
	if err != nil {
		return 0, nil, fmt.Errorf("explore: census attach structure: %w", err)
	}
	base := w.dev.OpCount()
	w.dev.SetOpHook(func(op pmem.Op, _ pmem.Scope, _ uint64) {
		if op == pmem.OpFence {
			fences = append(fences, w.dev.OpCount()-base)
		}
	})
	sh.inUseByStep = append(sh.inUseByStep[:0], p.InUse())
	for _, op := range sh.script {
		if err := st.step(op); err != nil {
			w.dev.SetOpHook(nil)
			return 0, nil, fmt.Errorf("explore: census step: %w", err)
		}
		sh.inUseByStep = append(sh.inUseByStep, p.InUse())
	}
	w.dev.SetOpHook(nil)
	T = w.dev.OpCount() - base
	if T == 0 {
		return 0, nil, fmt.Errorf("explore: workload issued no device ops")
	}
	return T, fences, nil
}

// intervalPoints sizes each fence interval (f_{i-1}, f_i], plus the tail
// after the last fence when non-empty.
func intervalPoints(T uint64, fences []uint64) []uint64 {
	var out []uint64
	prev := uint64(0)
	for _, f := range fences {
		out = append(out, f-prev)
		prev = f
	}
	if T > prev {
		out = append(out, T-prev)
	}
	return out
}

func registerMetrics(reg *obs.Registry, st *Stats) {
	reg.CounterFunc("explore_crash_points_total", "Top-level crash points processed.", nil, st.CrashPoints.Load)
	reg.CounterFunc("explore_states_explored_total", "Terminal states recovered and verified.", nil, st.Explored.Load)
	reg.CounterFunc("explore_pruned_total", "Crash points pruned by durable-image hash.", nil, st.Pruned.Load)
	reg.CounterFunc("explore_recovery_crashes_total", "Crashes injected during recovery.", nil, st.RecoveryCrashes.Load)
	reg.CounterFunc("explore_evictions_total", "Eviction-variant crash replays.", nil, st.Evictions.Load)
	reg.CounterFunc("explore_violations_total", "Verification failures.", nil, st.Violations.Load)
}

// worker owns one device and explores a shard of crash points.
type worker struct {
	sh  *shared
	dev *pmem.Device
}

func (sh *shared) newWorker() *worker {
	dev := pmem.New(len(sh.pristine), pmem.Options{TrackCrash: true})
	dev.SetFlightRecorder(sh.cfg.FlightCap)
	return &worker{sh: sh, dev: dev}
}

// markSeen records a durable-image hash, reporting whether it was new.
func (w *worker) markSeen(h uint64) bool {
	_, loaded := w.sh.seen.LoadOrStore(h, struct{}{})
	return !loaded
}

func (w *worker) fail(m uint64, trail []uint64, seed int64, acked int, err error) {
	w.sh.stats.Violations.Add(1)
	v := Violation{
		CrashPoint: m,
		Trail:      append([]uint64(nil), trail...),
		EvictSeed:  seed,
		Acked:      acked,
		Err:        err,
		Flight:     pmem.FormatFlight(w.dev.FlightEvents()),
	}
	w.sh.mu.Lock()
	w.sh.viols = append(w.sh.viols, v)
	if len(w.sh.viols) >= w.sh.cfg.MaxViolations {
		w.sh.stop.Store(true)
	}
	w.sh.mu.Unlock()
	w.sh.cfg.Log("explore: VIOLATION %s", v)
}

// explorePoint handles one top-level crash point: plain crash (with
// nested recovery exploration), then eviction variants.
func (w *worker) explorePoint(m uint64) {
	acked, crashed, err := w.replayWorkload(m, 0)
	w.sh.stats.CrashPoints.Add(1)
	if err != nil {
		w.fail(m, nil, 0, acked, err)
		return
	}
	if !crashed {
		w.fail(m, nil, 0, acked, fmt.Errorf("crash point %d never fired (workload ops shrank?)", m))
		return
	}
	if w.markSeen(w.dev.DurableHash()) {
		img := w.dev.DurableSnapshot()
		w.exploreRecovery(img, acked, m, nil, 0)
	} else {
		w.sh.stats.Pruned.Add(1)
	}

	for seed := int64(1); seed <= int64(w.sh.cfg.EvictionSeeds); seed++ {
		if w.sh.stop.Load() {
			return
		}
		acked, crashed, err := w.replayWorkload(m, seed)
		if err != nil {
			w.fail(m, nil, seed, acked, err)
			return
		}
		if !crashed {
			return
		}
		w.sh.stats.Evictions.Add(1)
		if !w.markSeen(w.dev.DurableHash()) {
			w.sh.stats.Pruned.Add(1)
			continue
		}
		// Eviction variants get plain recovery verification; the nested
		// dimension is explored on the canonical (evict-free) image.
		img := w.dev.DurableSnapshot()
		w.recoverAndVerify(img, acked, m, nil, seed)
	}
}

// replayWorkload restores the pristine image, attaches, arms a cut at
// workload-relative op m, and replays the script. It reports how many
// steps completed before power was lost. With evictSeed non-zero the cut
// additionally persists a pseudo-random subset of unfenced cache lines.
func (w *worker) replayWorkload(m uint64, evictSeed int64) (acked int, crashed bool, err error) {
	acked, crashed, err = w.replayArm(m)
	if err != nil || !crashed {
		return acked, crashed, err
	}
	if evictSeed != 0 {
		w.dev.CrashWithEviction(evictSeed)
	} else {
		w.dev.Crash()
	}
	return acked, true, nil
}

// replayArm is replayWorkload up to — but not including — the loss of
// power: the device is left armed at the cut, its dirty/pending state
// intact, so the caller can inspect TornCandidates (or any other at-risk
// state) before deciding how the crash lands. Callers must apply
// Crash/CrashWithEviction/CrashTornMasks themselves when crashed is true.
func (w *worker) replayArm(m uint64) (acked int, crashed bool, err error) {
	w.dev.RestoreDurable(w.sh.pristine)
	w.dev.SetFlightRecorder(w.sh.cfg.FlightCap) // fresh history per replay
	p, err := w.sh.cfg.AttachFn(w.dev)
	if err != nil {
		return 0, false, fmt.Errorf("clean attach failed: %w", err)
	}
	w.sh.tune(p)
	st, err := w.sh.def.attach(corundumeng.Wrap(p))
	if err != nil {
		return 0, false, fmt.Errorf("clean attach structure: %w", err)
	}
	w.dev.CrashAt(w.dev.OpCount() + m)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != pmem.ErrInjectedCrash {
					panic(r)
				}
				crashed = true
			}
		}()
		for _, op := range w.sh.script {
			if e := st.step(op); e != nil {
				err = fmt.Errorf("step error before crash point: %w", e)
				return
			}
			acked++
		}
	}()
	w.dev.CrashAt(0)
	return acked, crashed, err
}

// exploreRecovery enumerates every op of recovery-from-img as a further
// crash point, up to the configured depth, verifying each terminal state.
// crashes counts recovery-level crashes already on the trail.
func (w *worker) exploreRecovery(img []byte, acked int, m uint64, trail []uint64, crashes int) {
	// The clean path first: recovery runs to completion and must yield a
	// state satisfying the contract.
	if !w.recoverAndVerify(img, acked, m, trail, 0) {
		return
	}
	if crashes >= w.sh.cfg.Depth {
		return
	}
	for r := uint64(1); ; r++ {
		if w.sh.stop.Load() {
			return
		}
		w.dev.RestoreDurable(img)
		w.dev.CrashAt(w.dev.OpCount() + r)
		_, crashed, err := w.tryAttach()
		if err != nil {
			w.fail(m, append(trail, r), 0, acked, fmt.Errorf("recovery attach error: %w", err))
			return
		}
		if !crashed {
			w.dev.CrashAt(0)
			return // recovery finished in fewer than r ops: level exhausted
		}
		w.sh.stats.RecoveryCrashes.Add(1)
		w.dev.Crash()
		if !w.markSeen(w.dev.DurableHash()) {
			w.sh.stats.Pruned.Add(1)
			continue
		}
		sub := w.dev.DurableSnapshot()
		// Copy the trail: siblings at this level must not share backing.
		subTrail := append(append([]uint64(nil), trail...), r)
		w.exploreRecovery(sub, acked, m, subTrail, crashes+1)
	}
}

// tryAttach attempts recovery, converting an injected crash into a flag.
func (w *worker) tryAttach() (p *pool.Pool, crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r != pmem.ErrInjectedCrash {
				panic(r)
			}
			crashed = true
		}
	}()
	p, err = w.sh.cfg.AttachFn(w.dev)
	return
}

// recoverAndVerify restores img, runs fsck + recovery, and checks every
// invariant: structural fsck of the raw image, allocator consistency,
// workload shape, and the linearizability contract — the recovered state
// must equal the model after acked steps (in-flight transaction rolled
// back) or acked+1 (it had committed). Reports whether verification
// passed.
func (w *worker) recoverAndVerify(img []byte, acked int, m uint64, trail []uint64, seed int64) bool {
	w.dev.RestoreDurable(img)
	if err := pool.Fsck(w.dev); err != nil {
		w.fail(m, trail, seed, acked, fmt.Errorf("post-crash fsck: %w", err))
		return false
	}
	p, err := w.sh.cfg.AttachFn(w.dev)
	if err != nil {
		w.fail(m, trail, seed, acked, fmt.Errorf("recovery failed: %w", err))
		return false
	}
	if err := p.CheckConsistency(); err != nil {
		w.fail(m, trail, seed, acked, fmt.Errorf("allocator inconsistent after recovery: %w", err))
		return false
	}
	st, err := w.sh.def.attach(corundumeng.Wrap(p))
	if err != nil {
		w.fail(m, trail, seed, acked, fmt.Errorf("structure attach: %w", err))
		return false
	}
	if err := st.check(); err != nil {
		w.fail(m, trail, seed, acked, fmt.Errorf("structure invariant: %w", err))
		return false
	}
	matched := -1
	errA := st.verify(w.sh.models[acked])
	if errA == nil {
		matched = acked
	} else if acked+1 < len(w.sh.models) {
		if errB := st.verify(w.sh.models[acked+1]); errB == nil {
			matched = acked + 1
		}
	}
	if matched < 0 {
		w.fail(m, trail, seed, acked, fmt.Errorf("state matches neither %d nor %d acked steps: %w", acked, acked+1, errA))
		return false
	}
	// Heap conservation: the models are pairwise distinct, so the matched
	// step count is unique, and a clean run at that step count holds
	// exactly inUseByStep[matched] bytes. A recovered image must agree —
	// this is the allocator's no-leak/no-double-alloc contract, and it is
	// exactly the invariant an unresolved slab claim or a discarded
	// ledger entry would break.
	if matched < len(w.sh.inUseByStep) {
		if got, want := p.InUse(), w.sh.inUseByStep[matched]; got != want {
			w.fail(m, trail, seed, acked, fmt.Errorf(
				"heap in-use %d after recovery, want %d at %d acked steps (leak or double-alloc)", got, want, matched))
			return false
		}
	}
	w.sh.stats.Explored.Add(1)
	return true
}
