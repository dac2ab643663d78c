package server_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/baselines/engine"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

// legacyShardPools returns n pools each holding an empty store in the
// layout written before the directory header carried a hash kind: the
// header word is the bare bucket count (top byte 0) under its CRC32.
func legacyShardPools(t *testing.T, n, buckets int) []*pool.Pool {
	t.Helper()
	pools := newShardPools(t, n, 16<<20)
	for _, p := range pools {
		ep := corundumeng.Wrap(p)
		kv, err := workloads.NewKVStore(ep, buckets)
		if err != nil {
			t.Fatal(err)
		}
		hdr := kv.Buckets()
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], hdr)
		if err := ep.Tx(func(tx engine.Tx) error {
			if err := tx.Store(ep.Root(), hdr); err != nil {
				return err
			}
			return tx.Store(ep.Root()+8, uint64(crc32.ChecksumIEEE(w[:])))
		}); err != nil {
			t.Fatal(err)
		}
		if kv, err := workloads.AttachKVStore(ep); err != nil || kv.Hash() != workloads.HashFibLow {
			t.Fatalf("forged legacy store attaches as %v, %v; want fib-low", kv, err)
		}
	}
	return pools
}

// legacyKeys differ only above bit 40 within each id, so under the
// low-bit hash every tenant of an id shares one chain.
func legacyKeys() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for tenant := uint64(0); tenant < 8; tenant++ {
		for id := uint64(0); id < 50; id++ {
			k := tenant<<40 | id
			m[k] = valFor(k)
		}
	}
	return m
}

// TestReshardLegacyIntoFreshShards splits a legacy (fib-low) shard into
// fresh (fib-high) ones while serving: every key survives, and each shard
// keeps reporting the hash its store was created with.
func TestReshardLegacyIntoFreshShards(t *testing.T) {
	src := legacyShardPools(t, 1, 512)
	defer closeShardPools(src)
	fresh := newShardPools(t, 3, 16<<20)
	// Shards 1 and 2 open through the opener and become server-owned;
	// fresh[0] is spare.
	defer closeShardPools(fresh[:1])
	opener := func(i int) (*pool.Pool, error) { return fresh[i], nil }
	srv, addr := startShardedServer(t, src, server.Options{
		MaxBatch: 8, Buckets: 512, MigrateBatchBuckets: 32, ShardOpener: opener,
	})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()

	model := legacyKeys()
	for k, v := range model {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, v), "+OK")
	}
	if h := parseKV(t, mustCmd(t, cl, "STATS"))["kv_hash"]; h != "fib-low" {
		t.Fatalf("legacy server STATS kv_hash = %q, want fib-low", h)
	}
	if mc := parseKV(t, mustCmd(t, cl, "SCRUB"))["kv_max_chain"]; mc != "8" {
		t.Fatalf("legacy SCRUB kv_max_chain = %q, want 8 (one chain per id)", mc)
	}

	mustReply(t, cl, "RESHARD 3", "+OK")
	waitMigration(t, cl, 30*time.Second)
	for k, v := range model {
		mustReply(t, cl, fmt.Sprintf("GET %d", k), fmt.Sprintf(":%d", v))
	}
	if got := scanToMap(t, mustCmd(t, cl, "SCAN")); len(got) != len(model) {
		t.Fatalf("SCAN after reshard holds %d keys, want %d", len(got), len(model))
	}
	stats := parseKV(t, mustCmd(t, cl, "STATS"))
	for shard, want := range []string{"fib-low", "fib-high", "fib-high"} {
		if got := stats[fmt.Sprintf("shard%d_kv_hash", shard)]; got != want {
			t.Errorf("STATS shard%d_kv_hash = %q, want %s", shard, got, want)
		}
	}
	if stats["kv_hash"] != "mixed" {
		t.Errorf("STATS kv_hash = %q, want mixed", stats["kv_hash"])
	}
	if integ := parseKV(t, mustCmd(t, cl, "SCRUB"))["store_integrity"]; integ != "ok" {
		t.Errorf("SCRUB store_integrity = %q after reshard", integ)
	}
}

// TestBackupLegacyRestoresIntoFresh takes a BACKUP of a legacy (fib-low)
// pool and restores it into a server over a fresh (fib-high) pool.
func TestBackupLegacyRestoresIntoFresh(t *testing.T) {
	src := legacyShardPools(t, 1, 256)
	defer closeShardPools(src)
	srv, addr := startShardedServer(t, src, server.Options{MaxBatch: 8, Buckets: 256})
	defer srv.Close()
	cl := dial(t, addr)
	defer cl.close()
	model := legacyKeys()
	for k, v := range model {
		mustReply(t, cl, fmt.Sprintf("SET %d %d", k, v), "+OK")
	}
	path := filepath.Join(t.TempDir(), "legacy.crdbkp")
	if rep := parseKV(t, mustCmd(t, cl, "BACKUP "+path)); rep["base_keys"] != fmt.Sprint(len(model)) {
		t.Fatalf("BACKUP base_keys = %q, want %d", rep["base_keys"], len(model))
	}

	dst := newShardPools(t, 1, 16<<20)
	defer closeShardPools(dst)
	srv2, addr2 := startShardedServer(t, dst, server.Options{MaxBatch: 8, Buckets: 256})
	defer srv2.Close()
	cl2 := dial(t, addr2)
	defer cl2.close()
	parseKV(t, mustCmd(t, cl2, "RESTORE "+path))
	restored := scanToMap(t, mustCmd(t, cl2, "SCAN"))
	if len(restored) != len(model) {
		t.Fatalf("restored %d keys, backup had %d", len(restored), len(model))
	}
	for k, v := range model {
		if restored[k] != v {
			t.Fatalf("restored key %d = %d, want %d", k, restored[k], v)
		}
	}
	if h := parseKV(t, mustCmd(t, cl2, "STATS"))["kv_hash"]; h != "fib-high" {
		t.Errorf("restored server STATS kv_hash = %q, want fib-high", h)
	}
}
