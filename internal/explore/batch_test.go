package explore

import (
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// TestKVBatchScriptShape checks the group-commit script against a real
// store: the bucket mirror agrees with the store kvbatch explores, every
// even step inserts three keys into one bucket (the chain then reads
// r → q → p) plus a repeated key, and the odd step after it deletes q
// while r still precedes it (an interior delete), then r with p behind it
// (a head delete).
func TestKVBatchScriptShape(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), batchBuckets)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4096; k++ {
		if got, want := batchBucket(k), kv.Bucket(k); got != want {
			t.Fatalf("batchBucket(%d) = %d, store routes it to %d", k, got, want)
		}
	}
	script, models := buildBatchScript(8)
	for i := 0; i+1 < len(script); i += 2 {
		ins, del := script[i].batch, script[i+1].batch
		p, q, r := ins[0].key, ins[2].key, ins[3].key
		if kv.Bucket(q) != kv.Bucket(p) || kv.Bucket(r) != kv.Bucket(p) {
			t.Errorf("step %d: keys %d, %d, %d do not share a bucket", i, p, q, r)
		}
		if ins[4].key != p || ins[4].del {
			t.Errorf("step %d: no repeated put of %d", i, p)
		}
		if !del[3].del || del[3].key != q || !del[4].del || del[4].key != r {
			t.Errorf("step %d: want del %d (interior) then del %d (head), got %+v", i+1, q, r, del[3:5])
		}
	}
	for i := range models {
		for j := range i {
			if len(models[i]) == len(models[j]) && diffModel(models[i], models[j]) == nil {
				t.Fatalf("models %d and %d are equal; pruning needs distinct step states", j, i)
			}
		}
	}
}

// TestExhaustiveKVBatch cuts power at every device op of two multi-op
// Apply steps (one of each kind) — the pre-log run that undo-logs the
// batch's directory words under one fence, every in-place store, the
// commit — with eviction variants, and requires the exact model and heap
// occupancy after each. CI sweeps eight steps at depth 2 through
// corundum-torture.
func TestExhaustiveKVBatch(t *testing.T) {
	cfg := Config{Workload: "kvbatch", Steps: 2, Depth: 1, EvictionSeeds: 1, Workers: 2, PoolSize: 1 << 20}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s\nflight:\n%s", v, v.Flight)
	}
	if got := res.Stats.CrashPoints.Load(); got != res.TotalOps || got == 0 {
		t.Fatalf("processed %d crash points, workload has %d ops", got, res.TotalOps)
	}
	if res.Stats.Explored.Load() == 0 || res.Stats.Evictions.Load() == 0 {
		t.Fatal("nothing was verified, or no eviction variant ran")
	}
}
