// Package engine defines the untyped, offset-based PM programming surface
// that the evaluation workloads (BST, KVStore, B+Tree) are written
// against. Each comparison library from the paper — PMDK's libpmemobj,
// Atlas, Mnemosyne, go-pmem, and Corundum itself — implements this
// interface with its own logging discipline, so Figure 1 compares the
// disciplines on identical workload code, exactly as the paper ported one
// algorithm across five libraries.
//
// The interface is deliberately C-like (offsets, explicit loads/stores):
// that is the level of abstraction PMDK exposes, and it keeps every
// library's per-operation costs visible.
package engine

import (
	"corundum/internal/pmem"
)

// Config sizes a pool for any library.
type Config struct {
	// Size is the pool footprint in bytes.
	Size int
	// Mem selects the emulated device's latency profile and crash tracking.
	Mem pmem.Options
}

// Lib is one persistent-memory programming system.
type Lib interface {
	// Name identifies the library in benchmark output ("PMDK", "Atlas", ...).
	Name() string
	// Open creates (or reopens) a pool backed by an in-memory device.
	Open(cfg Config) (Pool, error)
}

// Pool is an open pool of one library.
type Pool interface {
	// Root returns the pool's 8-byte root slot contents (0 when unset).
	Root() uint64
	// Tx runs body failure-atomically under the library's discipline.
	Tx(body func(tx Tx) error) error
	// Device exposes the underlying emulated device (statistics, crashes).
	Device() *pmem.Device
	// Close detaches the pool.
	Close() error
}

// Tx is one in-flight failure-atomic section.
type Tx interface {
	// Alloc obtains size bytes of persistent memory, rolled back if the
	// section aborts.
	Alloc(size uint64) (uint64, error)
	// Free releases the block at off (of the given size) at commit.
	Free(off, size uint64) error
	// Load reads the 8-byte word at off through the library's read path
	// (redo-log STMs pay a lookup here; undo-log systems read directly).
	Load(off uint64) uint64
	// Store writes the 8-byte word at off under the library's logging
	// discipline.
	Store(off, val uint64) error
	// StoreBytes writes an arbitrary range under the logging discipline.
	StoreBytes(off uint64, data []byte) error
	// LogWords announces 8-byte words the section is about to Store to,
	// before any of those stores. An undo-log library may snapshot them
	// all at once (one flush pass, one fence) instead of one log append
	// per first Store; libraries whose Store already logs make it a no-op.
	// It never changes what a later Store does, only what it costs.
	LogWords(offs []uint64) error
	// ReadBytes copies n bytes at off into out through the read path.
	ReadBytes(off uint64, out []byte)
	// SetRoot stores the pool's root slot.
	SetRoot(off uint64) error
}
