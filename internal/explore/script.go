package explore

// A workload script is a fixed, deterministic sequence of single-mutation
// steps; exhaustive exploration cuts power at every device op the sequence
// issues. Each step is one failure-atomic transaction, so after a crash at
// any point during step s the recovered state must equal the model after s
// steps (the transaction rolled back) or after s+1 (it had passed its
// commit point).
//
// The pattern — put, put, overwrite, delete — exercises allocation,
// in-place update (undo-log data entries), and free (drop logs applied at
// commit, reclaimed by recovery on rollback). Every step changes the
// abstract state, so the per-step models are pairwise distinct; that is
// what makes durable-hash pruning sound (a durable image determines a
// unique recovered state, hence a unique step count it can belong to).
type scriptOp struct {
	del      bool
	key, val uint64
	// batch, when set, makes the step ONE multi-op KVStore.Apply of these
	// ops, in order (the kvbatch workload); del/key/val are then unused.
	batch []scriptOp
}

// buildScript returns the step sequence and models[0..steps], where
// models[k] is the expected key→value map after k completed steps.
func buildScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	ops := make([]scriptOp, steps)
	for i := 0; i < steps; i++ {
		group := uint64(i / 4) // each group of 4 works on two fresh keys
		k0 := group*2 + 1
		k1 := group*2 + 2
		switch i % 4 {
		case 0:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 11}
		case 1:
			ops[i] = scriptOp{key: k1, val: uint64(i)*1000 + 11}
		case 2:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 77} // overwrite
		case 3:
			ops[i] = scriptOp{del: true, key: k0}
		}
	}
	return ops, foldModels(ops)
}

// buildChurnScript is the allocator-campaign variant: every group of 4
// is put k0, put k1, delete k0, re-put k0 — a delete immediately
// followed by a same-size-class insert, so with a warm (or tiny-tuned)
// slab cache the window covers park (the delete's entry block), claim
// (the re-put consumes it), refill (the fresh puts), and spill (caps of
// 1–2 overflow on the second park). Every step still changes the
// abstract state — the re-put's value differs and k1 accumulates — so
// the models stay pairwise distinct and durable-hash pruning stays
// sound.
func buildChurnScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	ops := make([]scriptOp, steps)
	for i := 0; i < steps; i++ {
		group := uint64(i / 4)
		k0 := group*2 + 1
		k1 := group*2 + 2
		switch i % 4 {
		case 0:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 13}
		case 1:
			ops[i] = scriptOp{key: k1, val: uint64(i)*1000 + 13}
		case 2:
			ops[i] = scriptOp{del: true, key: k0}
		case 3:
			ops[i] = scriptOp{key: k0, val: uint64(i)*1000 + 91} // re-insert: claims the parked block
		}
	}
	return ops, foldModels(ops)
}

// batchBuckets and batchBucket mirror the store the kvbatch workload
// explores (workloads.NewKVStore(p, 8), hashed fib-high), so the script
// can place keys in shared buckets on purpose; TestKVBatchScriptShape
// checks the mirror against a real store.
const batchBuckets = 8

func batchBucket(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 61 }

// buildBatchScript is the group-commit campaign: every step is one
// multi-op Apply, so each crash point lands inside a batch's pre-log run
// (the whole directory write set undo-logged under one fence) or its
// commit. Steps alternate:
//
//   - even: put p, put c, put q, put r, put p again — fresh inserts, a
//     repeated key (the second put updates an entry this same batch
//     allocated), and p, q, r sharing one bucket, so the chain reads
//     r → q → p;
//   - odd: put c (in-place update of a committed entry), put x then del x
//     (the slot word changes and changes back within the batch), del q
//     (an interior delete: r precedes it), del r (a head delete with p
//     behind it), put e (fresh).
//
// Every step leaves a fresh key behind (p and c, or e), so the models
// stay pairwise distinct and durable-hash pruning stays sound.
func buildBatchScript(steps int) ([]scriptOp, []map[uint64]uint64) {
	next := uint64(1)
	fresh := func() uint64 { next++; return next - 1 }
	sameBucket := func(k uint64) uint64 {
		for c := next; ; c++ {
			if batchBucket(c) == batchBucket(k) {
				next = max(next, c+1)
				return c
			}
		}
	}
	ops := make([]scriptOp, steps)
	var q, r, c uint64
	for i := range ops {
		v := uint64(i) * 1000
		if i%2 == 0 {
			p := fresh()
			q, r = sameBucket(p), sameBucket(p)
			c = fresh()
			ops[i].batch = []scriptOp{
				{key: p, val: v + 1}, {key: c, val: v + 2}, {key: q, val: v + 3},
				{key: r, val: v + 4}, {key: p, val: v + 5},
			}
			continue
		}
		x, e := fresh(), fresh()
		ops[i].batch = []scriptOp{
			{key: c, val: v + 1}, {key: x, val: v + 2}, {del: true, key: x},
			{del: true, key: q}, {del: true, key: r}, {key: e, val: v + 3},
		}
	}
	return ops, foldModels(ops)
}

// scriptFor selects the step sequence for a workload name: the
// "allocheavy" alias runs the kvstore structure under the churn script,
// "kvbatch" under the batch script.
func scriptFor(workload string, steps int) ([]scriptOp, []map[uint64]uint64) {
	switch workload {
	case "allocheavy":
		return buildChurnScript(steps)
	case "kvbatch":
		return buildBatchScript(steps)
	}
	return buildScript(steps)
}

// foldModels derives models[0..len(ops)] by folding the script over the
// empty map.
func foldModels(ops []scriptOp) []map[uint64]uint64 {
	models := make([]map[uint64]uint64, len(ops)+1)
	models[0] = map[uint64]uint64{}
	for i, op := range ops {
		m := make(map[uint64]uint64, len(models[i])+1)
		for k, v := range models[i] {
			m[k] = v
		}
		batch := op.batch
		if batch == nil {
			batch = []scriptOp{op}
		}
		for _, o := range batch {
			if o.del {
				delete(m, o.key)
			} else {
				m[o.key] = o.val
			}
		}
		models[i+1] = m
	}
	return models
}
