package workloads

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync/atomic"

	"corundum/internal/baselines/engine"
)

// ErrDataCorrupt reports that a stored checksum failed verification: the
// media returned bytes that no committed transaction wrote. Verified
// readers surface it instead of silently returning a wrong value.
var ErrDataCorrupt = errors.New("workloads: data corruption detected")

// KVStore is the paper's "simple Key-Value store data structure using hash
// map": a fixed bucket directory with chained entries, hardened against
// at-rest media faults with checksums on every structure.
//
// Entry layout: [key][next][val][crc], 32 bytes. The allocator's smallest
// block is one 64-byte granule (alloc.MinOrder = 6), so each entry still
// occupies 64 bytes of heap — about 64 B of PM per key. crc is a CRC32
// (widened to a word) over key/next/val. val and crc are adjacent so the
// hot overwrite path updates them with ONE contiguous 16-byte store — a
// single undo-log entry, preserving the paper's fence profile (entries are
// granule-aligned, so val and crc always share a cache line).
const (
	kvKey   = 0
	kvNext  = 8
	kvVal   = 16
	kvCRC   = 24
	kvEntry = 32
)

// Directory layout:
//
//	[hash<<56 | nBuckets][dirCRC][slots n×8][groupCRCs ⌈n/8⌉×8]
//	[cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][reserved]
//
// The header word's top byte names the bucket hash (HashKind) and the rest
// holds nBuckets; dirCRC covers the whole word. groupCRC i covers slots
// [8i, 8i+8).
// The trailing meta words anchor the sharding and replication machinery:
// cfg packs the cluster config (epoch<<32 | shard count, 0 when never
// written), mani points at the migration/restore manifest block (0 when
// no manifest is pending), and the repl pair is the durable replication
// cursor {epoch, seq} — on a replica, the last frame applied; on a
// primary, the last sequence this shard committed (see ApplyWithCursor).
// Each slot carries its own checksum so a media fault in any of them is
// a loud ErrDataCorrupt, never silent misrouting or silent re-apply.
const (
	slotGroup = 8
	kvMetaLen = 64 // [cfg][cfgCRC][mani][maniCRC][replEpoch][replSeq][replCRC][reserved]

	kvMetaCfg  = 0  // offset of the config word within the meta area
	kvMetaMani = 16 // offset of the manifest-pointer word within the meta area
	kvMetaRepl = 32 // offset of the replication cursor pair within the meta area
)

// KVStore is a persistent hash map over one engine pool.
type KVStore struct {
	pool     engine.Pool
	dir      uint64 // offset of the directory block
	buckets  uint64 // offset of the slot array
	groupCRC uint64 // offset of the slot-group checksum array
	meta     uint64 // offset of the config/manifest meta words
	nBuckets uint64
	hash     HashKind
	shift    uint // 64 - log2(nBuckets): the fib-high bucket is h >> shift

	// Chain entries walked by committed SETs, the write side of the
	// store's probe cost (see SetWalked). Reads report their walk to the
	// caller instead (GetWalked, GetViewWalked).
	setWalked atomic.Uint64
}

// HashKind names the function that maps a key to its bucket. It is part of
// the on-media format: the directory header records it, and a store keeps
// the kind it was created with for life, because every chain is laid out
// under it.
type HashKind uint8

const (
	// HashFibLow keeps the low log2(n) bits of key·φ64. Low product bits
	// depend only on low key bits, so keys that differ only above the mask
	// all collide. Stores written before the header carried a kind have
	// top byte 0 and keep this hash.
	HashFibLow HashKind = 0
	// HashFibHigh keeps the high log2(n) bits of key·φ64, which depend on
	// every key bit (Knuth's multiplicative hashing). New stores use it.
	HashFibHigh HashKind = 1
)

const (
	fibMul    = 0x9E3779B97F4A7C15 // 2^64 / φ
	hashShift = 56                 // the header word's kind byte
	countMask = 1<<hashShift - 1
)

func (h HashKind) String() string {
	switch h {
	case HashFibLow:
		return "fib-low"
	case HashFibHigh:
		return "fib-high"
	}
	return fmt.Sprintf("unknown(%d)", uint8(h))
}

// ErrUnknownHash reports a directory header naming a bucket hash this
// build does not implement. Such a store is refused rather than served,
// since routing its keys through any other hash would misplace them.
var ErrUnknownHash = errors.New("workloads: unknown bucket hash kind")

// decodeHeader splits the directory header word into hash kind and bucket
// count, refusing kinds and counts this build cannot route with.
func decodeHeader(w uint64) (HashKind, uint64, error) {
	h, n := HashKind(w>>hashShift), w&countMask
	if h != HashFibLow && h != HashFibHigh {
		return 0, 0, fmt.Errorf("%w %d in directory header", ErrUnknownHash, uint8(h))
	}
	if n == 0 || n&(n-1) != 0 {
		return 0, 0, fmt.Errorf("%w: directory claims %d buckets", ErrDataCorrupt, n)
	}
	return h, n, nil
}

func wordsCRC(words ...uint64) uint64 {
	var buf [8 * slotGroup]byte
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return uint64(crc32.ChecksumIEEE(buf[:8*len(words)]))
}

func entryCRC(key, next, val uint64) uint64 { return wordsCRC(key, next, val) }

// storeWords stores vals[i] at offs[i]. A meta slot's writer passes the
// slot's word list, which applyWith also pre-logs, so the two cannot
// drift apart: a value without a word panics here.
func storeWords(tx engine.Tx, offs []uint64, vals ...uint64) error {
	if len(vals) != len(offs) {
		panic(fmt.Sprintf("workloads: %d values for %d meta-slot words", len(vals), len(offs)))
	}
	for i, off := range offs {
		if err := tx.Store(off, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

func groups(n uint64) uint64 { return (n + slotGroup - 1) / slotGroup }

// setShape records the directory size and hash a store routes with.
func (kv *KVStore) setShape(h HashKind, n uint64) {
	kv.hash, kv.nBuckets = h, n
	kv.shift = uint(64 - bits.TrailingZeros64(n))
}

// NewKVStore initializes a store with nBuckets chains (rounded up to a
// power of two), hashed with HashFibHigh. The hash has no per-store seed,
// so two stores of the same size place every key in the same bucket.
func NewKVStore(p engine.Pool, nBuckets int) (*KVStore, error) {
	return newKVStore(p, nBuckets, HashFibHigh)
}

func newKVStore(p engine.Pool, nBuckets int, h HashKind) (*KVStore, error) {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n <<= 1
	}
	kv := &KVStore{pool: p}
	kv.setShape(h, n)
	hdr := uint64(h)<<hashShift | n
	err := p.Tx(func(tx engine.Tx) error {
		dir, err := tx.Alloc(16 + n*8 + groups(n)*8 + kvMetaLen)
		if err != nil {
			return err
		}
		kv.dir = dir
		kv.buckets = dir + 16
		kv.groupCRC = kv.buckets + n*8
		kv.meta = kv.groupCRC + groups(n)*8
		if err := tx.Store(dir, hdr); err != nil {
			return err
		}
		if err := tx.Store(dir+8, wordsCRC(hdr)); err != nil {
			return err
		}
		zero := make([]byte, n*8)
		if err := tx.StoreBytes(kv.buckets, zero); err != nil {
			return err
		}
		for g := uint64(0); g < groups(n); g++ {
			lo, hi := g*slotGroup, min((g+1)*slotGroup, n)
			if err := tx.Store(kv.groupCRC+g*8, wordsCRC(make([]uint64, hi-lo)...)); err != nil {
				return err
			}
		}
		// Meta words start zeroed: no config written, no manifest pending.
		// The checksums still cover them so later flips are detected.
		for _, off := range []uint64{kvMetaCfg, kvMetaMani} {
			if err := tx.Store(kv.meta+off, 0); err != nil {
				return err
			}
			if err := tx.Store(kv.meta+off+8, wordsCRC(0)); err != nil {
				return err
			}
		}
		// Replication cursor {epoch, seq} starts at zero: never replicated.
		if err := kv.writeReplCursorTx(tx, 0, 0); err != nil {
			return err
		}
		return tx.SetRoot(dir)
	})
	if err != nil {
		return nil, err
	}
	return kv, nil
}

// AttachKVStore reconnects to a store previously created in the pool,
// verifying the directory header's checksum and the config/manifest meta
// slots first: a store whose routing metadata cannot be trusted must not
// serve at all, because a wrong shard count silently misroutes every key.
// The header's hash kind is decoded here, once; a store from before the
// kind existed attaches as HashFibLow, and an unknown kind is refused with
// ErrUnknownHash.
func AttachKVStore(p engine.Pool) (*KVStore, error) {
	dir := p.Root()
	kv := &KVStore{pool: p, dir: dir, buckets: dir + 16}
	err := p.Tx(func(tx engine.Tx) error {
		hdr := tx.Load(dir)
		if tx.Load(dir+8) != wordsCRC(hdr) {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		h, n, err := decodeHeader(hdr)
		if err != nil {
			return err
		}
		kv.setShape(h, n)
		kv.groupCRC = kv.buckets + n*8
		kv.meta = kv.groupCRC + groups(n)*8
		for _, m := range []struct {
			off  uint64
			name string
		}{{kvMetaCfg, "config"}, {kvMetaMani, "manifest pointer"}} {
			w := tx.Load(kv.meta + m.off)
			if tx.Load(kv.meta+m.off+8) != wordsCRC(w) {
				return fmt.Errorf("%w: %s meta slot", ErrDataCorrupt, m.name)
			}
		}
		return kv.verifyReplCursorTx(tx)
	})
	if err != nil {
		return nil, err
	}
	return kv, nil
}

// bucket maps key to its directory slot with the store's hash kind
// (Fibonacci hashing). Every bucket computation goes through here.
func (kv *KVStore) bucket(key uint64) uint64 {
	h := key * fibMul
	if kv.hash == HashFibLow {
		return h & (kv.nBuckets - 1)
	}
	return h >> kv.shift
}

// loadSlot reads bucket slot b after verifying its group checksum.
func (kv *KVStore) loadSlot(tx engine.Tx, b uint64) (uint64, error) {
	g := b / slotGroup
	lo, hi := g*slotGroup, min((g+1)*slotGroup, kv.nBuckets)
	words := make([]uint64, 0, slotGroup)
	for i := lo; i < hi; i++ {
		words = append(words, tx.Load(kv.buckets+i*8))
	}
	if tx.Load(kv.groupCRC+g*8) != wordsCRC(words...) {
		return 0, fmt.Errorf("%w: bucket group %d", ErrDataCorrupt, g)
	}
	return words[b-lo], nil
}

// storeSlot writes bucket slot b and refreshes its group checksum in the
// same transaction.
func (kv *KVStore) storeSlot(tx engine.Tx, b, val uint64) error {
	if err := tx.Store(kv.buckets+b*8, val); err != nil {
		return err
	}
	g := b / slotGroup
	lo, hi := g*slotGroup, min((g+1)*slotGroup, kv.nBuckets)
	words := make([]uint64, 0, slotGroup)
	for i := lo; i < hi; i++ {
		words = append(words, tx.Load(kv.buckets+i*8))
	}
	return tx.Store(kv.groupCRC+g*8, wordsCRC(words...))
}

// loadEntry reads and verifies one chain entry.
func loadEntry(tx engine.Tx, e uint64) (key, next, val uint64, err error) {
	key, next, val = tx.Load(e+kvKey), tx.Load(e+kvNext), tx.Load(e+kvVal)
	if tx.Load(e+kvCRC) != entryCRC(key, next, val) {
		return 0, 0, 0, fmt.Errorf("%w: entry %#x", ErrDataCorrupt, e)
	}
	return key, next, val, nil
}

// storeValCRC overwrites an entry's value and checksum with one
// contiguous store (they are adjacent by layout).
func storeValCRC(tx engine.Tx, e, key, next, val uint64) error {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], val)
	binary.LittleEndian.PutUint64(buf[8:], entryCRC(key, next, val))
	return tx.StoreBytes(e+kvVal, buf[:])
}

// Put inserts or updates key (the paper's PUT).
func (kv *KVStore) Put(key, val uint64) error {
	var walked uint64
	err := kv.pool.Tx(func(tx engine.Tx) error {
		walked = 0
		return kv.putTx(tx, key, val, &walked)
	})
	if err == nil {
		kv.setWalked.Add(walked)
	}
	return err
}

// putTx inserts or updates key, adding the chain entries it visits to
// *walked.
func (kv *KVStore) putTx(tx engine.Tx, key, val uint64, walked *uint64) error {
	b := kv.bucket(key)
	head, err := kv.loadSlot(tx, b)
	if err != nil {
		return err
	}
	for e := head; e != 0; {
		*walked++
		k, next, _, err := loadEntry(tx, e)
		if err != nil {
			return err
		}
		if k == key {
			return storeValCRC(tx, e, key, next, val)
		}
		e = next
	}
	e, err := tx.Alloc(kvEntry)
	if err != nil {
		return err
	}
	var buf [kvEntry]byte
	binary.LittleEndian.PutUint64(buf[kvKey:], key)
	binary.LittleEndian.PutUint64(buf[kvNext:], head)
	binary.LittleEndian.PutUint64(buf[kvVal:], val)
	binary.LittleEndian.PutUint64(buf[kvCRC:], entryCRC(key, head, val))
	if err := tx.StoreBytes(e, buf[:]); err != nil {
		return err
	}
	return kv.storeSlot(tx, b, e)
}

// Get looks up key (the paper's GET). Every entry touched on the way is
// checksum-verified; a mismatch returns ErrDataCorrupt rather than a
// possibly-wrong value.
func (kv *KVStore) Get(key uint64) (val uint64, found bool, err error) {
	val, found, _, err = kv.GetWalked(key)
	return val, found, err
}

// GetWalked is Get that also reports the chain entries it visited, the
// matching one included: this lookup's probe length.
func (kv *KVStore) GetWalked(key uint64) (val uint64, found bool, walked uint64, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		walked = 0
		e, err := kv.loadSlot(tx, kv.bucket(key))
		if err != nil {
			return err
		}
		for e != 0 {
			walked++
			k, next, v, err := loadEntry(tx, e)
			if err != nil {
				return err
			}
			if k == key {
				val, found = v, true
				return nil
			}
			e = next
		}
		return nil
	})
	return val, found, walked, err
}

// Delete removes key and reclaims its entry.
func (kv *KVStore) Delete(key uint64) (removed bool, err error) {
	err = kv.pool.Tx(func(tx engine.Tx) error {
		removed, err = kv.deleteTx(tx, key)
		return err
	})
	return removed, err
}

func (kv *KVStore) deleteTx(tx engine.Tx, key uint64) (bool, error) {
	b := kv.bucket(key)
	head, err := kv.loadSlot(tx, b)
	if err != nil {
		return false, err
	}
	var prevE, prevKey, prevVal uint64
	for e := head; e != 0; {
		k, next, v, err := loadEntry(tx, e)
		if err != nil {
			return false, err
		}
		if k == key {
			if prevE == 0 {
				if err := kv.storeSlot(tx, b, next); err != nil {
					return false, err
				}
			} else {
				if err := tx.Store(prevE+kvNext, next); err != nil {
					return false, err
				}
				if err := tx.Store(prevE+kvCRC, entryCRC(prevKey, next, prevVal)); err != nil {
					return false, err
				}
			}
			return true, tx.Free(e, kvEntry)
		}
		prevE, prevKey, prevVal = e, k, v
		e = next
	}
	return false, nil
}

// Op is one mutation in a batched transaction: a PUT of Key=Val, or (when
// Del is set) a delete of Key.
type Op struct {
	Del      bool
	Key, Val uint64
}

// Apply runs every op, in order, inside ONE failure-atomic transaction:
// after a crash either all ops are visible or none are. This is the
// group-commit entry point used by corundum-server's batcher — one
// undo-log commit (and its flush+fence) is amortized over the whole
// batch. The returned slice has one element per op: for deletes, whether
// the key existed; for puts, always true.
func (kv *KVStore) Apply(ops []Op) ([]bool, error) {
	if len(ops) == 0 {
		return make([]bool, 0), nil
	}
	return kv.applyWith(ops, nil, nil)
}

// applyWith runs ops, in order, and then tail (when set) inside ONE
// failure-atomic transaction. It is the body of Apply, ApplyWithManifest
// and ApplyWithCursor. tailWords names the directory words tail stores to.
//
// Before the first store the batch undo-logs, as one run with one fence,
// every bucket-slot and group-checksum word its keys hash to plus
// tailWords: the whole directory write set, known from the keys alone.
// Chain-entry words are still logged on first store; they are only known
// after the walk. A pre-logged word the batch never stores to (an update
// or interior delete does not touch its slot) costs log bytes, not a
// flush.
//
// The entries the SETs walk are summed over the batch and, once it
// commits, published with one atomic add; the server applies batches
// under the shard's store lock.
func (kv *KVStore) applyWith(ops []Op, tailWords []uint64, tail func(tx engine.Tx) error) ([]bool, error) {
	res := make([]bool, len(ops))
	words := make([]uint64, 0, 2*len(ops)+len(tailWords))
	for _, op := range ops {
		b := kv.bucket(op.Key)
		words = append(words, kv.buckets+b*8, kv.groupCRC+b/slotGroup*8)
	}
	words = append(words, tailWords...)
	var walked uint64
	err := kv.pool.Tx(func(tx engine.Tx) error {
		walked = 0
		if err := tx.LogWords(words); err != nil {
			return err
		}
		for i, op := range ops {
			if op.Del {
				removed, err := kv.deleteTx(tx, op.Key)
				if err != nil {
					return err
				}
				res[i] = removed
			} else {
				if err := kv.putTx(tx, op.Key, op.Val, &walked); err != nil {
					return err
				}
				res[i] = true
			}
		}
		if tail != nil {
			return tail(tx)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	kv.setWalked.Add(walked)
	return res, nil
}

// Scan visits every key/value pair (in bucket order, not key order) until
// fn returns false. It runs as a read-only transaction with the same
// verified-read discipline as Get.
func (kv *KVStore) Scan(fn func(key, val uint64) bool) error {
	return kv.pool.Tx(func(tx engine.Tx) error {
		for b := uint64(0); b < kv.nBuckets; b++ {
			e, err := kv.loadSlot(tx, b)
			if err != nil {
				return err
			}
			for e != 0 {
				k, next, v, err := loadEntry(tx, e)
				if err != nil {
					return err
				}
				if !fn(k, v) {
					return nil
				}
				e = next
			}
		}
		return nil
	})
}

// ScanRange visits every key/value pair whose key hashes into a bucket in
// [lo, hi) until fn returns false. Migration moves keys in bucket-index
// windows, so "which keys does this batch cover" and "which keys has the
// cursor passed" are both bucket-range questions; ScanRange is the verified
// walk both use.
func (kv *KVStore) ScanRange(lo, hi uint64, fn func(key, val uint64) bool) error {
	if hi > kv.nBuckets {
		hi = kv.nBuckets
	}
	return kv.pool.Tx(func(tx engine.Tx) error {
		for b := lo; b < hi; b++ {
			e, err := kv.loadSlot(tx, b)
			if err != nil {
				return err
			}
			for e != 0 {
				k, next, v, err := loadEntry(tx, e)
				if err != nil {
					return err
				}
				if !fn(k, v) {
					return nil
				}
				e = next
			}
		}
		return nil
	})
}

// Buckets reports the directory size. Migration cursors count buckets, so
// callers need the bound; Bucket reports where a key hashes, which is the
// coordinate system those cursors are compared in.
func (kv *KVStore) Buckets() uint64 { return kv.nBuckets }

// Bucket reports the directory index key hashes to in this store.
func (kv *KVStore) Bucket(key uint64) uint64 { return kv.bucket(key) }

// Hash reports the bucket hash the store was created with.
func (kv *KVStore) Hash() HashKind { return kv.hash }

// SetWalked reports the chain entries walked so far by committed SETs,
// the matching entry included. Divided by the SET count it is the mean
// write probe length.
func (kv *KVStore) SetWalked() uint64 { return kv.setWalked.Load() }

// Len counts entries (test helper).
func (kv *KVStore) Len() (int, error) {
	n := 0
	err := kv.Scan(func(_, _ uint64) bool { n++; return true })
	return n, err
}

// VerifyIntegrity walks the whole store — directory header, every slot
// group, every chain entry — verifying each checksum. It returns nil when
// everything checks out and an ErrDataCorrupt-wrapped diagnosis naming
// the first damaged structure otherwise. Servers run it at startup and on
// demand (SCRUB).
func (kv *KVStore) VerifyIntegrity() error {
	_, err := kv.VerifyShape()
	return err
}

// Shape is a store's occupancy, counted by a full walk.
type Shape struct {
	Buckets  uint64 // directory size
	Entries  uint64 // chain entries (keys) in the store
	MaxChain uint64 // longest bucket chain
}

// LoadFactor is the mean chain length: entries per bucket.
func (sh Shape) LoadFactor() float64 {
	return float64(sh.Entries) / float64(sh.Buckets)
}

// VerifyShape is VerifyIntegrity that also reports the store's shape,
// counted by the same verified walk.
func (kv *KVStore) VerifyShape() (Shape, error) {
	sh := Shape{Buckets: kv.nBuckets}
	err := kv.pool.Tx(func(tx engine.Tx) error {
		hdr := tx.Load(kv.dir)
		if tx.Load(kv.dir+8) != wordsCRC(hdr) {
			return fmt.Errorf("%w: directory header", ErrDataCorrupt)
		}
		if h, n, err := decodeHeader(hdr); err != nil {
			return err
		} else if h != kv.hash || n != kv.nBuckets {
			return fmt.Errorf("%w: directory claims %d buckets hashed %s, attached with %d hashed %s",
				ErrDataCorrupt, n, h, kv.nBuckets, kv.hash)
		}
		for b := uint64(0); b < kv.nBuckets; b++ {
			e, err := kv.loadSlot(tx, b)
			if err != nil {
				return err
			}
			var chain uint64
			for e != 0 {
				_, next, _, err := loadEntry(tx, e)
				if err != nil {
					return err
				}
				chain++
				e = next
			}
			sh.Entries += chain
			sh.MaxChain = max(sh.MaxChain, chain)
		}
		for _, m := range []struct {
			off  uint64
			name string
		}{{kvMetaCfg, "config"}, {kvMetaMani, "manifest pointer"}} {
			w := tx.Load(kv.meta + m.off)
			if tx.Load(kv.meta+m.off+8) != wordsCRC(w) {
				return fmt.Errorf("%w: %s meta slot", ErrDataCorrupt, m.name)
			}
		}
		if err := kv.verifyReplCursorTx(tx); err != nil {
			return err
		}
		if mani := tx.Load(kv.meta + kvMetaMani); mani != 0 {
			if _, err := decodeManifest(tx, mani); err != nil {
				return err
			}
		}
		return nil
	})
	return sh, err
}
