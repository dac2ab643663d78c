package repl

import (
	"errors"
	"testing"
	"time"

	"corundum/internal/workloads"
)

func mustReserve(t *testing.T, l *Log) uint64 {
	t.Helper()
	s, err := l.Reserve()
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	return s
}

func mustNext(t *testing.T, l *Log, after uint64) Frame {
	t.Helper()
	f, ok, err := l.Next(after, time.Second, nil)
	if err != nil || !ok {
		t.Fatalf("Next(%d) = ok=%v err=%v", after, ok, err)
	}
	return f
}

// TestLogOutOfOrderPublish pins the two-phase sequencing contract:
// readers only ever observe the contiguous prefix, even when shard
// committers publish their reserved sequences out of order.
func TestLogOutOfOrderPublish(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	s1, s2, s3 := mustReserve(t, l), mustReserve(t, l), mustReserve(t, l)
	if s1 != 1 || s2 != 2 || s3 != 3 {
		t.Fatalf("reserved %d %d %d", s1, s2, s3)
	}
	l.Publish(Frame{Epoch: 1, Seq: s3, Ops: []workloads.Op{{Key: 3}}})
	l.Publish(Frame{Epoch: 1, Seq: s2, Ops: []workloads.Op{{Key: 2}}})
	if c := l.Contiguous(); c != 0 {
		t.Fatalf("contiguous = %d with seq 1 still pending", c)
	}
	l.Publish(Frame{Epoch: 1, Seq: s1, Ops: []workloads.Op{{Key: 1}}})
	if c := l.Contiguous(); c != 3 {
		t.Fatalf("contiguous = %d after gap fill, want 3", c)
	}
	for want := uint64(1); want <= 3; want++ {
		f := mustNext(t, l, want-1)
		if f.Seq != want || f.Ops[0].Key != want {
			t.Fatalf("frame after %d: %+v", want-1, f)
		}
	}
}

// TestLogCancelFillsGap pins that a failed commit does not stall the
// stream: Cancel publishes an empty frame readers step over.
func TestLogCancelFillsGap(t *testing.T) {
	l := NewLog(10, 64, 1<<20)
	s1 := mustReserve(t, l)
	s2 := mustReserve(t, l)
	l.Publish(Frame{Epoch: 1, Seq: s2, Ops: []workloads.Op{{Key: 9}}})
	l.Cancel(1, s1)
	if c := l.Contiguous(); c != 12 {
		t.Fatalf("contiguous = %d, want 12", c)
	}
	gap := mustNext(t, l, 10)
	if gap.Seq != 11 || gap.Ops != nil {
		t.Fatalf("gap frame = %+v", gap)
	}
}

// TestLogAbandonEndsStream pins that a sequence cut by a power failure
// is never gap-filled: readers stop before it, frames published above it
// (another shard's later commits) are dropped and refused, and no new
// sequence is handed out, so nothing past it is acknowledged.
func TestLogAbandonEndsStream(t *testing.T) {
	l := NewLog(10, 64, 1<<20)
	s1, s2, s3, s4 := mustReserve(t, l), mustReserve(t, l), mustReserve(t, l), mustReserve(t, l)
	if err := l.Publish(Frame{Epoch: 1, Seq: s3, Ops: []workloads.Op{{Key: 3}}}); err != nil {
		t.Fatalf("publish %d before the cut: %v", s3, err)
	}
	l.Abandon(s2)
	if err := l.Publish(Frame{Epoch: 1, Seq: s1, Ops: []workloads.Op{{Key: 1}}}); err != nil {
		t.Fatalf("publish %d below the abandoned %d: %v", s1, s2, err)
	}
	if err := l.Publish(Frame{Epoch: 1, Seq: s4, Ops: []workloads.Op{{Key: 4}}}); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("publish %d past the abandoned %d = %v, want ErrStreamEnded", s4, s2, err)
	}
	if s, err := l.Reserve(); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("Reserve after Abandon = %d, %v; want ErrStreamEnded", s, err)
	}
	if c := l.Contiguous(); c != s1 {
		t.Fatalf("contiguous = %d, want %d (the stream ends before abandoned %d)", c, s1, s2)
	}
	// s3 was published (its write acknowledged) before the cut: it can no
	// longer be delivered, and the lag says so instead of reading zero.
	if end, lost := l.Ended(); end != s2 || lost != 1 {
		t.Fatalf("Ended = %d, %d; want %d, 1", end, lost, s2)
	}
	if lag := l.LagFrom(s1); lag.Frames != 1 {
		t.Fatalf("lag of a reader at %d = %+v, want the 1 stranded frame", s1, lag)
	}
	if f := mustNext(t, l, 10); f.Seq != s1 {
		t.Fatalf("frame after 10 = %+v, want seq %d", f, s1)
	}
	if f, ok, err := l.Next(s1, 30*time.Millisecond, nil); ok || err != nil {
		t.Fatalf("Next past the abandoned sequence = %+v, ok=%v, err=%v; want a heartbeat timeout", f, ok, err)
	}
}

func TestLogNextHeartbeatTimeout(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	start := time.Now()
	_, ok, err := l.Next(0, 30*time.Millisecond, nil)
	if ok || err != nil {
		t.Fatalf("Next on empty log = ok=%v err=%v, want heartbeat timeout", ok, err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("Next returned before the heartbeat timeout")
	}
}

func TestLogNextWakesOnPublish(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	go func() {
		time.Sleep(10 * time.Millisecond)
		s, _ := l.Reserve() // a fresh log never refuses; Next below checks the sequence
		l.Publish(Frame{Epoch: 1, Seq: s})
	}()
	f := mustNext(t, l, 0)
	if f.Seq != 1 {
		t.Fatalf("woke with frame %+v", f)
	}
}

func TestLogNextStop(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	stop := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(stop)
	}()
	_, _, err := l.Next(0, time.Minute, stop)
	if !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Next after stop = %v, want ErrLogClosed", err)
	}
}

// TestLogEviction pins the backpressure contract: a reader that falls
// out of the bounded window gets ErrEvicted (→ full resync) instead of
// stalling the primary.
func TestLogEviction(t *testing.T) {
	l := NewLog(0, 4, 1<<20)
	for i := 0; i < 10; i++ {
		s := mustReserve(t, l)
		l.Publish(Frame{Epoch: 1, Seq: s, Ops: []workloads.Op{{Key: uint64(i)}}})
	}
	if l.CanResume(0) {
		t.Fatal("CanResume(0) after eviction")
	}
	if !l.CanResume(l.LowestRetained() - 1) {
		t.Fatal("cannot resume from the window edge")
	}
	if _, _, err := l.Next(0, time.Second, nil); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Next below the window = %v, want ErrEvicted", err)
	}
	if f := mustNext(t, l, l.LowestRetained()-1); f.Seq != l.LowestRetained() {
		t.Fatalf("edge read returned %+v", f)
	}
}

// TestLogPinProtectsWindow pins snapshot anchoring: a pin holds frames
// beyond maxFrames (a bootstrap's delta tail must survive the walk),
// but only up to the 4× hard cap — past that, bounded memory wins.
func TestLogPinProtectsWindow(t *testing.T) {
	l := NewLog(0, 4, 1<<20)
	pin := l.Pin() // anchors at seq 0
	for i := 0; i < 12; i++ {
		s := mustReserve(t, l)
		l.Publish(Frame{Epoch: 1, Seq: s})
	}
	// 12 frames ≤ 4×maxFrames: everything the pin covers is retained.
	if !l.CanResume(pin.Seq) {
		t.Fatal("pinned sequence evicted below the hard cap")
	}
	for i := 0; i < 10; i++ {
		s := mustReserve(t, l)
		l.Publish(Frame{Epoch: 1, Seq: s})
	}
	// 22 frames > 4×maxFrames = 16: the hard cap overrides the pin.
	if l.CanResume(pin.Seq) {
		t.Fatal("hard cap did not override the pin")
	}
	pin.Release()
	pin.Release() // double release is safe
	// With the pin gone the window snaps back to maxFrames.
	if got := l.Contiguous() - (l.LowestRetained() - 1); got > 4 {
		t.Fatalf("window still holds %d frames after release", got)
	}
}

func TestLogLagFrom(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	var bytes uint64
	for i := 0; i < 5; i++ {
		s := mustReserve(t, l)
		f := Frame{Epoch: 1, Seq: s, Ops: []workloads.Op{{Key: uint64(i)}}}
		bytes += uint64(f.WireSize())
		l.Publish(f)
	}
	lag := l.LagFrom(0)
	if lag.Frames != 5 || lag.Bytes != bytes {
		t.Fatalf("lag from 0 = %+v, want 5 frames / %d bytes", lag, bytes)
	}
	if lag.Seconds < 0 {
		t.Fatalf("negative lag seconds: %v", lag.Seconds)
	}
	if caught := l.LagFrom(5); caught.Frames != 0 || caught.Bytes != 0 {
		t.Fatalf("lag when caught up = %+v", caught)
	}
}

func TestLogClose(t *testing.T) {
	l := NewLog(0, 64, 1<<20)
	errc := make(chan error, 1)
	go func() {
		_, _, err := l.Next(0, time.Minute, nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	if err := <-errc; !errors.Is(err, ErrLogClosed) {
		t.Fatalf("Next after Close = %v, want ErrLogClosed", err)
	}
}
