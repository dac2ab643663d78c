package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"corundum/internal/pmem"
	"corundum/internal/pool"
	"corundum/internal/workloads"
)

// TestMovedReplyDeterministic pins the -MOVED wire reply without racing
// the migration driver: the test builds the Resharder by hand, holds the
// TARGET shard's write lock, and runs one Step in the background. The
// step publishes its fence window first and then blocks applying at the
// target — freezing the window open — so a SET to a moving key is
// deterministically refused with "-MOVED <target>" while a GET keeps
// answering from the source. Releasing the lock lets the batch land,
// after which the same SET routes to the new owner and succeeds.
func TestMovedReplyDeterministic(t *testing.T) {
	var pools []*pool.Pool
	for i := 0; i < 2; i++ {
		p, err := pool.Create("", pool.Config{
			Size: 16 << 20, Journals: 8,
			Mem: pmem.Options{TrackCrash: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	srv, err := NewSharded(pools, Options{MaxBatch: 8, Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		rep, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return strings.TrimRight(rep, "\r\n")
	}

	// A key served by shard 1 today; the 2->1 merge moves it to shard 0.
	k := uint64(1)
	for workloads.ShardFor(k, 2) != 1 {
		k++
	}
	if rep := send(fmt.Sprintf("SET %d 7", k)); rep != "+OK" {
		t.Fatalf("seed SET = %q", rep)
	}

	st := srv.st()
	_, cfgEpoch, err := st.shards[0].kv.ReadConfig()
	if err != nil {
		t.Fatal(err)
	}
	// One batch covers the whole store, so the single Step below moves
	// every key of shard 1 (k included).
	rs, err := workloads.NewResharder(
		[]*workloads.KVStore{st.shards[0].kv, st.shards[1].kv},
		2, 1, cfgEpoch+1, int(st.shards[1].kv.Buckets()), shardCoord{st.shards})
	if err != nil {
		t.Fatal(err)
	}
	srv.state.Store(&routeState{shards: st.shards, n: 2, rs: rs})
	srv.installFences(st.shards, 2, rs)
	if err := rs.Init(); err != nil {
		t.Fatal(err)
	}

	st.shards[0].lock.Lock()
	unlocked := false
	defer func() {
		if !unlocked {
			st.shards[0].lock.Unlock()
		}
	}()
	stepDone := make(chan error, 1)
	go func() {
		_, err := rs.Step(1)
		stepDone <- err
	}()

	// SETs accepted before the fence publishes just update the expected
	// value; the first -MOVED marks the window up — and it stays up while
	// we hold the target's lock.
	want := uint64(7)
	var moved string
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("fence window never published")
		}
		rep := send(fmt.Sprintf("SET %d %d", k, 100+i))
		if rep == "+OK" {
			want = 100 + i
			time.Sleep(time.Millisecond)
			continue
		}
		moved = rep
		break
	}
	if !IsMovedReply(moved) {
		t.Fatalf("refusal = %q, want -MOVED", moved)
	}
	if got := MovedShard(moved); got != 0 {
		t.Fatalf("MovedShard(%q) = %d, want 0", moved, got)
	}
	// Deterministically refused again while the window is held open.
	if rep := send(fmt.Sprintf("SET %d 9999", k)); !IsMovedReply(rep) {
		t.Fatalf("second probe = %q, want -MOVED", rep)
	}
	// Reads never go wrong mid-window: the source still owns the key.
	if rep := send(fmt.Sprintf("GET %d", k)); rep != fmt.Sprintf(":%d", want) {
		t.Fatalf("GET mid-window = %q, want :%d", rep, want)
	}

	st.shards[0].lock.Unlock()
	unlocked = true
	if err := <-stepDone; err != nil {
		t.Fatal(err)
	}

	// The batch landed and the cursor advanced: the key's new owner
	// accepts the retried write, and the value lives on shard 0 now.
	if rep := send(fmt.Sprintf("SET %d 4242", k)); rep != "+OK" {
		t.Fatalf("retry after handover = %q, want +OK", rep)
	}
	if rep := send(fmt.Sprintf("GET %d", k)); rep != ":4242" {
		t.Fatalf("GET after handover = %q, want :4242", rep)
	}
	st.shards[0].lock.RLock()
	v, found, err := st.shards[0].kv.Get(k)
	st.shards[0].lock.RUnlock()
	if err != nil || !found || v != 4242 {
		t.Fatalf("shard 0 store holds (%d, %v, %v), want (4242, true, nil)", v, found, err)
	}
	st.shards[1].lock.RLock()
	_, still, err := st.shards[1].kv.Get(k)
	st.shards[1].lock.RUnlock()
	if err != nil || still {
		t.Fatalf("key %d still present at the source after the batch (err=%v)", k, err)
	}
}

// TestStaleRoutedWriteRefusedAfterCommit: a SET routed under the
// migration-time view can still sit in a source shard's batcher queue
// when the migration commits. Once the layout has changed it must be
// refused -MOVED, not applied at a shard that no longer owns its key —
// that would acknowledge a write no later GET can find.
func TestStaleRoutedWriteRefusedAfterCommit(t *testing.T) {
	var pools []*pool.Pool
	for i := 0; i < 2; i++ {
		p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	srv, err := NewSharded(pools, Options{MaxBatch: 8, Buckets: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A key shard 1 serves today; the 2->1 merge moves it to shard 0.
	k := uint64(1)
	for workloads.ShardFor(k, 2) != 1 {
		k++
	}
	before := srv.st()
	if err := srv.Reshard(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Shards() != 1 {
		if err := srv.MigrationError(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never committed")
		}
		time.Sleep(time.Millisecond)
	}

	// The write a connection routed to shard 1 before the commit.
	_, err = before.shards[1].b.Submit(workloads.Op{Key: k, Val: 5})
	var moved workloads.MovedError
	if !errors.As(err, &moved) || moved.Shard != 0 {
		t.Fatalf("stale-routed SET at the retired shard returned %v, want moved to shard 0", err)
	}
	before.shards[1].lock.RLock()
	_, found, err := before.shards[1].kv.Get(k)
	before.shards[1].lock.RUnlock()
	if err != nil || found {
		t.Fatalf("the retired shard stored the stale write (found=%v, err=%v)", found, err)
	}
}
