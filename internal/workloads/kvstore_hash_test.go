package workloads

import (
	"errors"
	"fmt"
	"testing"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/pmem"
	"corundum/internal/pool"
)

// chainBound is the spread property: no bucket may hold more than four
// times the mean chain plus a small constant.
func chainBound(keys, buckets int) int { return 4*keys/buckets + 8 }

// maxChain counts keys per bucket under kv's hash.
func maxChain(kv *KVStore, keys []uint64) int {
	counts := make([]int, kv.Buckets())
	most := 0
	for _, k := range keys {
		b := kv.Bucket(k)
		counts[b]++
		most = max(most, counts[b])
	}
	return most
}

// highBitKeys are 256 tenants × 64 ids, the tenant in the high bits.
func highBitKeys() []uint64 {
	var keys []uint64
	for t := uint64(0); t < 256; t++ {
		for id := uint64(0); id < 64; id++ {
			keys = append(keys, t<<40|id)
		}
	}
	return keys
}

type keyspace struct {
	name string
	keys []uint64
}

// spreadKeyspaces are keyspaces that defeat a hash reading only some of
// the key's bits.
func spreadKeyspaces() []keyspace {
	var low []uint64
	for k := uint64(0); k < 16384; k++ {
		low = append(low, k)
	}
	spaces := []keyspace{{"high bits", highBitKeys()}, {"low bits", low}}
	for k := uint(0); k <= 48; k++ {
		var keys []uint64
		for i := uint64(1); i <= 16384; i++ {
			keys = append(keys, i<<k)
		}
		spaces = append(spaces, keyspace{fmt.Sprintf("stride 2^%d", k), keys})
	}
	return spaces
}

// TestKVStoreHashSpread checks that a fresh store spreads keys varying only
// in their high bits, only in their low bits, or by any power-of-two
// stride up to 2^48 within the chain bound at 4,096 buckets.
func TestKVStoreHashSpread(t *testing.T) {
	kv, err := NewKVStore(migPool(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Hash() != HashFibHigh {
		t.Fatalf("fresh store hash = %s, want fib-high", kv.Hash())
	}
	for _, ks := range spreadKeyspaces() {
		if got, bound := maxChain(kv, ks.keys), chainBound(len(ks.keys), 4096); got > bound {
			t.Errorf("%s: max chain %d over %d keys, want <= %d", ks.name, got, len(ks.keys), bound)
		}
	}
}

// TestKVStoreFibLowCollidesOnHighBits pins the defect fib-high fixes: the
// low product bits ignore key bits above the mask, so 256 tenants × 64 ids
// fill only 64 buckets, 256 deep.
func TestKVStoreFibLowCollidesOnHighBits(t *testing.T) {
	kv, err := newKVStore(migPool(t), 4096, HashFibLow)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxChain(kv, highBitKeys()); got != 256 {
		t.Fatalf("fib-low max chain over tenant<<40 keys = %d, want 256", got)
	}
}

// TestNewKVStoreHashIsDeterministic: there is no per-store seed, so two
// fresh stores place every key in the same bucket (models of the server's
// store, such as the benchmark's chain-shape count, rely on it).
func TestNewKVStoreHashIsDeterministic(t *testing.T) {
	a, err := NewKVStore(migPool(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKVStore(migPool(t), 4096)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1<<16; k += 7 {
		key := k * 0x100000001
		if a.Bucket(key) != b.Bucket(key) {
			t.Fatalf("key %#x: bucket %d vs %d", key, a.Bucket(key), b.Bucket(key))
		}
	}
}

// crashablePool is a Corundum pool on a crash-tracking device.
func crashablePool(t *testing.T) *pool.Pool {
	t.Helper()
	p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 4, Mem: pmem.Options{TrackCrash: true}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKVStoreLegacyHashSurvivesReopen builds a store with the pre-kind
// header (top byte 0), cuts power, and reattaches: the store must come back
// as fib-low with every key in the bucket the low-bit hash names, found by
// both the locked and the lock-free read, and keep taking SETs and DELs.
func TestKVStoreLegacyHashSurvivesReopen(t *testing.T) {
	p := crashablePool(t)
	kv, err := newKVStore(corundumeng.Wrap(p), 64, HashFibLow)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	for i := uint64(0); i < 200; i++ {
		k := (i%8)<<40 | i
		if err := kv.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
		model[k] = k + 1
	}
	if hdr := p.Device().Bytes()[kv.dir+7]; hdr != 0 {
		t.Fatalf("legacy header top byte = %d, want 0", hdr)
	}

	dev := p.Device()
	dev.Crash()
	p2, err := pool.Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	kv2, err := AttachKVStore(corundumeng.Wrap(p2))
	if err != nil {
		t.Fatal(err)
	}
	if kv2.Hash() != HashFibLow || kv2.Buckets() != 64 {
		t.Fatalf("reattached as %s/%d buckets, want fib-low/64", kv2.Hash(), kv2.Buckets())
	}
	view, err := p2.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for k, want := range model {
			if b := kv2.Bucket(k); b != (k*fibMul)&63 {
				t.Fatalf("%s: key %#x in bucket %d, want the low-bit bucket %d", when, k, b, (k*fibMul)&63)
			}
			v, ok, err := kv2.Get(k)
			if err != nil || !ok || v != want {
				t.Fatalf("%s: locked Get(%#x) = (%d, %v, %v), want %d", when, k, v, ok, err, want)
			}
			v, ok, err = kv2.GetView(view, k)
			if err != nil || !ok || v != want {
				t.Fatalf("%s: GetView(%#x) = (%d, %v, %v), want %d", when, k, v, ok, err, want)
			}
		}
		if n, err := kv2.Len(); err != nil || n != len(model) {
			t.Fatalf("%s: Len = %d, %v; want %d", when, n, err, len(model))
		}
		if err := kv2.VerifyIntegrity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after reopen")
	for k := range model {
		if k%3 == 0 {
			if removed, err := kv2.Delete(k); err != nil || !removed {
				t.Fatalf("Delete(%#x) = %v, %v", k, removed, err)
			}
			delete(model, k)
		} else if k%3 == 1 {
			if err := kv2.Put(k, 7); err != nil {
				t.Fatal(err)
			}
			model[k] = 7
		}
	}
	check("after SET/DEL")
}

// TestKVStoreRefusesUnknownHash: a header naming a hash this build does not
// implement must refuse to attach, even with a valid checksum, rather than
// route keys through some other hash.
func TestKVStoreRefusesUnknownHash(t *testing.T) {
	p := migPool(t)
	kv, err := NewKVStore(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	hdr := uint64(7)<<hashShift | 64
	if err := p.Tx(func(tx engine.Tx) error {
		if err := tx.Store(kv.dir, hdr); err != nil {
			return err
		}
		return tx.Store(kv.dir+8, wordsCRC(hdr))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachKVStore(p); !errors.Is(err, ErrUnknownHash) {
		t.Fatalf("attach with hash kind 7 = %v, want ErrUnknownHash", err)
	}
	if err := kv.VerifyIntegrity(); !errors.Is(err, ErrUnknownHash) {
		t.Fatalf("VerifyIntegrity with hash kind 7 = %v, want ErrUnknownHash", err)
	}
}

// TestKVStoreWalkCounters: committed SETs add the chain entries they
// visit to SetWalked, and each GET (both paths) reports its own walk, the
// matching entry included.
func TestKVStoreWalkCounters(t *testing.T) {
	p := crashablePool(t)
	defer p.Close()
	kv, err := NewKVStore(corundumeng.Wrap(p), 1)
	if err != nil {
		t.Fatal(err)
	}
	// One bucket: each insert walks the whole chain before it.
	if _, err := kv.Apply([]Op{{Key: 1, Val: 1}, {Key: 2, Val: 2}, {Key: 3, Val: 3}}); err != nil {
		t.Fatal(err)
	}
	if set := kv.SetWalked(); set != 0+1+2 {
		t.Fatalf("set walked %d after three inserts, want 3", set)
	}
	if err := kv.Put(1, 9); err != nil { // key 1 is the tail of 3,2,1
		t.Fatal(err)
	}
	if set := kv.SetWalked(); set != 6 {
		t.Fatalf("set walked %d after updating the tail, want 6", set)
	}
	view, err := p.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key, want uint64
	}{{3, 1}, {2, 2}, {1, 3}, {4, 3}} { // head, middle, tail, miss
		if _, _, walked, err := kv.GetWalked(c.key); err != nil || walked != c.want {
			t.Fatalf("GetWalked(%d) walked %d (err %v), want %d", c.key, walked, err, c.want)
		}
		if _, _, walked, err := kv.GetViewWalked(view, c.key); err != nil || walked != c.want {
			t.Fatalf("GetViewWalked(%d) walked %d (err %v), want %d", c.key, walked, err, c.want)
		}
	}
	if set := kv.SetWalked(); set != 6 {
		t.Fatalf("set walked %d after reads, want 6", set)
	}
}
