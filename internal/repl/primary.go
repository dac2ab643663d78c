package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// Snapshot is a claimed full-store snapshot for a bootstrapping
// replica. StartSeq is the stream sequence the walk is consistent with:
// every frame ≤ StartSeq is durably in the walked stores, and every
// frame > StartSeq replays over the snapshot idempotently (the host
// pins the log at StartSeq so those frames stay retained through the
// walk). Walk streams the keyspace through chunk() as flat
// (key,value,...) pairs. Release frees the claim (admin slot, log pin);
// it must always be called.
type Snapshot struct {
	StartSeq uint64
	Walk     func(chunk func(pairs []uint64) error) (keys uint64, err error)
	Release  func()
}

// SnapshotFunc claims a snapshot, or fails fast (e.g. the host's admin
// slot is held by a conflicting BACKUP/RESTORE/RESHARD — relayed to the
// replica as -BUSY, which retries with backoff).
type SnapshotFunc func() (*Snapshot, error)

// PrimaryConfig wires a Primary to its host server.
type PrimaryConfig struct {
	Log      *Log
	Epoch    func() uint64 // current replication epoch
	Snapshot SnapshotFunc
	// Advertise, when non-nil, names the primary's CLIENT address (not
	// this replication listener); it rides the handshake verdict so
	// replicas can redirect mutations somewhere a client can actually
	// send them.
	Advertise func() string
	// Heartbeat is the idle-link cadence (default 500ms). Write deadline
	// is 4× it; a replica that can't drain the socket that long is
	// dropped and must re-sync.
	Heartbeat time.Duration
}

// snapChunkPairs caps key/value pairs per snapshot frame.
const snapChunkPairs = 1024

// replicaConn is one connected replica's send-side state.
type replicaConn struct {
	conn net.Conn
	mu   sync.Mutex
	ack  uint64
	gone bool
}

// Primary serves the replication stream: it accepts replica links on a
// listener, answers their SYNC handshakes (incremental resume when the
// log still holds their cursor, snapshot bootstrap otherwise), and ships
// delta frames + heartbeats while tracking per-replica ACKs for lag and
// drain accounting.
type Primary struct {
	cfg PrimaryConfig

	mu       sync.Mutex
	replicas map[*replicaConn]struct{}
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup
	ackCond  *sync.Cond

	// counters for metrics/REPLINFO
	fullSyncs  uint64
	contSyncs  uint64
	staleRejs  uint64
	framesSent uint64
}

// NewPrimary starts serving the replication stream on ln.
func NewPrimary(ln net.Listener, cfg PrimaryConfig) *Primary {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 500 * time.Millisecond
	}
	p := &Primary{cfg: cfg, replicas: make(map[*replicaConn]struct{}), ln: ln}
	p.ackCond = sync.NewCond(&p.mu)
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		rc := &replicaConn{conn: conn}
		p.replicas[rc] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveReplica(rc)
	}
}

func (p *Primary) dropReplica(rc *replicaConn) {
	rc.conn.Close()
	p.mu.Lock()
	if !rc.gone {
		rc.gone = true
		delete(p.replicas, rc)
		p.ackCond.Broadcast()
	}
	p.mu.Unlock()
}

// serveReplica handles one link: handshake, optional snapshot, then the
// delta tail. The ACK reader runs concurrently on the same connection.
func (p *Primary) serveReplica(rc *replicaConn) {
	defer p.wg.Done()
	defer p.dropReplica(rc)
	hb := p.cfg.Heartbeat

	rc.conn.SetReadDeadline(time.Now().Add(4 * hb))
	br := bufio.NewReaderSize(rc.conn, 1<<16)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	var peerEpoch, peerSeq uint64
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "SYNC %d %d", &peerEpoch, &peerSeq); err != nil {
		return
	}

	bw := bufio.NewWriterSize(rc.conn, 1<<16)
	myEpoch := p.cfg.Epoch()
	writeLine := func(s string) error {
		rc.conn.SetWriteDeadline(time.Now().Add(4 * hb))
		if _, err := bw.WriteString(s + "\n"); err != nil {
			return err
		}
		return bw.Flush()
	}

	// Handshake decision. A peer from a NEWER epoch must not sync from
	// this (stale) primary; a peer from an older epoch — a deposed
	// primary rejoining — is wiped by a full resync; an equal-epoch peer
	// continues incrementally iff the log still retains its cursor.
	var next uint64
	switch {
	case peerEpoch > myEpoch:
		p.count(&p.staleRejs)
		writeLine(fmt.Sprintf("-STALE %d", myEpoch))
		return
	case peerEpoch == myEpoch && p.cfg.Log.CanResume(peerSeq):
		p.count(&p.contSyncs)
		if err := writeLine(fmt.Sprintf("+CONT %d%s", myEpoch, p.advertiseSuffix())); err != nil {
			return
		}
		next = peerSeq
	default:
		startSeq, err := p.sendSnapshot(rc, bw, writeLine, myEpoch)
		if err != nil {
			return
		}
		p.count(&p.fullSyncs)
		next = startSeq
	}

	// ACK reader: every applied frame and every heartbeat is acked, so
	// the read side doubles as the liveness check.
	stop := make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(stop)
		for {
			rc.conn.SetReadDeadline(time.Now().Add(6 * hb))
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			var e, s uint64
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "ACK %d %d", &e, &s); err != nil {
				return
			}
			rc.mu.Lock()
			if s > rc.ack {
				rc.ack = s
			}
			rc.mu.Unlock()
			p.mu.Lock()
			p.ackCond.Broadcast()
			p.mu.Unlock()
		}
	}()

	// Delta tail: frames as they publish, heartbeats when idle.
	for {
		select {
		case <-stop:
			return
		default:
		}
		f, ok, err := p.cfg.Log.Next(next, hb, stop)
		if err != nil {
			// Evicted (replica too slow) or closed: drop the link; the
			// replica's reconnect handshake gets a fresh verdict.
			return
		}
		rc.conn.SetWriteDeadline(time.Now().Add(4 * hb))
		if !ok {
			if err := WriteFrame(bw, FrameHeartbeat, []uint64{p.cfg.Epoch(), p.cfg.Log.Contiguous()}); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		if err := WriteFrame(bw, FrameDelta, deltaWords(f)); err != nil {
			return
		}
		// Flush when nothing more is immediately available.
		if p.cfg.Log.Contiguous() <= f.Seq {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		p.count(&p.framesSent)
		next = f.Seq
	}
}

// sendSnapshot runs the bootstrap path: -BUSY if the host can't take a
// snapshot now, else SnapBegin, the chunked walk, SnapEnd. Returns the
// stream sequence deltas must continue from.
func (p *Primary) sendSnapshot(rc *replicaConn, bw *bufio.Writer, writeLine func(string) error, epoch uint64) (uint64, error) {
	snap, err := p.cfg.Snapshot()
	if err != nil {
		writeLine(fmt.Sprintf("-BUSY %s", strings.ReplaceAll(err.Error(), "\n", " ")))
		return 0, err
	}
	defer snap.Release()
	if err := writeLine(fmt.Sprintf("+FULL %d%s", epoch, p.advertiseSuffix())); err != nil {
		return 0, err
	}
	hb := p.cfg.Heartbeat
	if err := WriteFrame(bw, FrameSnapBegin, []uint64{epoch}); err != nil {
		return 0, err
	}
	// Flush before the walk: the replica must learn it is bootstrapping
	// (and enter its wipe) even if the first chunk takes a while.
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var sent uint64
	keys, err := snap.Walk(func(pairs []uint64) error {
		for len(pairs) > 0 {
			n := len(pairs) / 2
			if n > snapChunkPairs {
				n = snapChunkPairs
			}
			words := append([]uint64{uint64(n)}, pairs[:2*n]...)
			rc.conn.SetWriteDeadline(time.Now().Add(8 * hb))
			if err := WriteFrame(bw, FrameSnapChunk, words); err != nil {
				return err
			}
			sent += uint64(n)
			pairs = pairs[2*n:]
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	if keys != sent {
		return 0, fmt.Errorf("repl: snapshot walk reported %d keys, streamed %d", keys, sent)
	}
	rc.conn.SetWriteDeadline(time.Now().Add(4 * hb))
	if err := WriteFrame(bw, FrameSnapEnd, []uint64{epoch, snap.StartSeq, sent}); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return snap.StartSeq, nil
}

// advertiseSuffix is the optional client-address token appended to
// handshake verdicts (" <addr>", or "" when unknown).
func (p *Primary) advertiseSuffix() string {
	if p.cfg.Advertise == nil {
		return ""
	}
	if a := p.cfg.Advertise(); a != "" {
		return " " + a
	}
	return ""
}

func (p *Primary) count(c *uint64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// PrimaryStatus is a snapshot of the primary's replication state.
type PrimaryStatus struct {
	Replicas   int
	Lag        Lag // worst lag across connected replicas
	FullSyncs  uint64
	ContSyncs  uint64
	StaleRejs  uint64
	FramesSent uint64
}

// Status reports connected-replica count and worst-case lag.
func (p *Primary) Status() PrimaryStatus {
	p.mu.Lock()
	st := PrimaryStatus{
		Replicas:  len(p.replicas),
		FullSyncs: p.fullSyncs, ContSyncs: p.contSyncs,
		StaleRejs: p.staleRejs, FramesSent: p.framesSent,
	}
	acks := make([]uint64, 0, len(p.replicas))
	for rc := range p.replicas {
		rc.mu.Lock()
		acks = append(acks, rc.ack)
		rc.mu.Unlock()
	}
	p.mu.Unlock()
	for _, a := range acks {
		lag := p.cfg.Log.LagFrom(a)
		if lag.Frames > st.Lag.Frames {
			st.Lag = lag
		}
	}
	return st
}

// Drain blocks until every connected replica has acknowledged the log's
// current contiguous sequence (or disconnected), or the timeout expires.
// Graceful shutdown calls it after the batcher drain so replicas are at
// zero lag when the primary exits. When an abandoned stream left
// acknowledged frames behind (see Log.Ended), no replica can ever catch
// up and Drain fails at once.
func (p *Primary) Drain(timeout time.Duration) error {
	if end, lost := p.cfg.Log.Ended(); lost > 0 {
		return fmt.Errorf("repl: drain: %d acknowledged frame(s) past sequence %d can no longer be streamed", lost, end)
	}
	target := p.cfg.Log.Contiguous()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.ackCond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		behind := 0
		for rc := range p.replicas {
			rc.mu.Lock()
			if rc.ack < target {
				behind++
			}
			rc.mu.Unlock()
		}
		if behind == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return errors.New("repl: drain timeout: replicas still behind")
		}
		p.ackCond.Wait()
	}
}

// Close stops accepting, drops every link, and waits for the handlers.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := make([]*replicaConn, 0, len(p.replicas))
	for rc := range p.replicas {
		conns = append(conns, rc)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, rc := range conns {
		rc.conn.Close()
	}
	p.wg.Wait()
}
