package explore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestReplChaosCampaign runs the replication chaos rotation: link cuts,
// a replica power cut mid-apply, a promotion under load, a power cut
// mid-bootstrap, and a primary power cut — each round ending in
// byte-exact convergence with zero acked-write loss on the surviving
// epoch. CI's repl job runs the full rotation race-enabled via the CLI;
// here short/race builds trim to the first three scenarios.
func TestReplChaosCampaign(t *testing.T) {
	cfg := ReplConfig{
		Rounds:         len(replScenarios),
		WritesPerRound: 160,
		SeedKeys:       100,
		Log:            t.Logf,
	}
	if testing.Short() || raceEnabled {
		cfg.Rounds = 3 // linkcut, replica-crash, promote
		cfg.WritesPerRound = 120
	}
	res, err := RunRepl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if len(res.Violations) > 0 {
		t.FailNow()
	}
	st := res.Stats
	if st.Rounds.Load() != uint64(cfg.Rounds) {
		t.Fatalf("completed %d rounds, want %d", st.Rounds.Load(), cfg.Rounds)
	}
	if st.Acked.Load() == 0 {
		t.Fatal("no client write was ever acknowledged")
	}
	if st.LinkCuts.Load() == 0 || st.ReplicaCrashes.Load() == 0 || st.Promotes.Load() == 0 {
		t.Fatalf("scenario coverage hole: cuts=%d replicaCrashes=%d promotes=%d",
			st.LinkCuts.Load(), st.ReplicaCrashes.Load(), st.Promotes.Load())
	}
	if cfg.Rounds >= 5 && (st.BootstrapCrashes.Load() == 0 || st.PrimaryCrashes.Load() == 0) {
		t.Fatalf("scenario coverage hole: bootstrapCrashes=%d primaryCrashes=%d",
			st.BootstrapCrashes.Load(), st.PrimaryCrashes.Load())
	}
	t.Logf("rounds=%d acked=%d cuts=%d replicaCrashes=%d bootstrapCrashes=%d primaryCrashes=%d promotes=%d reboots=%d",
		st.Rounds.Load(), st.Acked.Load(), st.LinkCuts.Load(), st.ReplicaCrashes.Load(),
		st.BootstrapCrashes.Load(), st.PrimaryCrashes.Load(), st.Promotes.Load(), st.Reboots.Load())
}

// TestReplPrimaryCrashInCommitConverges cuts the primary's power at every
// device op of one DEL batch's commit, reboots it into the primary role,
// and requires the replica to converge to the primary's recovered state.
// A cut after the commit point leaves the batch durable on the primary,
// so the primary must never tell its replicas the batch did not happen.
func TestReplPrimaryCrashInCommitConverges(t *testing.T) {
	c := &replCampaign{cfg: ReplConfig{Shards: 1, SeedKeys: 8}.withDefaults(), stats: &ReplStats{}}
	// Size the sweep with one uncut DEL commit.
	ops := 0
	for cut := 1; ops == 0 || cut <= ops; cut++ {
		n, err := c.primaryCutRound(cut)
		if err != nil {
			t.Fatalf("cut at op %d of the DEL commit: %v", cut, err)
		}
		ops = n
	}
	t.Logf("swept %d crash points of a DEL commit", ops)
}

// primaryCutRound builds a primary/replica pair over a seeded keyspace,
// measures the device ops of one DEL commit, arms a power cut at op `cut`
// of an identical second DEL, reboots the primary, and waits for the pair
// to converge. It returns the measured op count.
func (c *replCampaign) primaryCutRound(cut int) (int, error) {
	deadline := time.Now().Add(10 * time.Second)
	a, err := c.buildNode("primary", "", nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = a.srv.Close() }()
	seeds := map[uint64]uint64{}
	if err := c.seed(a.clientAddr, seeds, deadline); err != nil {
		return 0, err
	}
	b, err := c.buildNode("replica", a.replAddr, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = b.srv.Close() }()
	if _, err := converge(a.clientAddr, b.clientAddr, deadline); err != nil {
		return 0, fmt.Errorf("before the cut: %w", err)
	}

	conn, err := net.DialTimeout("tcp", a.clientAddr, time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	del := func(i int) (string, error) {
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := fmt.Fprintf(conn, "DEL %d\n", replSeedKey(i)); err != nil {
			return "", err
		}
		return rd.ReadString('\n')
	}
	dev := a.devs[0]
	before := dev.OpCount()
	if rep, err := del(0); err != nil || !strings.HasPrefix(rep, ":1") {
		return 0, fmt.Errorf("probe DEL = %q, %v", rep, err)
	}
	ops := int(dev.OpCount() - before)
	if cut > ops {
		return ops, nil
	}
	dev.CrashAt(dev.OpCount() + uint64(cut))
	_, _ = del(1) // the cut lands inside this commit; the reply does not matter
	if !waitShardDown(a, deadline) {
		return ops, fmt.Errorf("power cut never fired")
	}
	if err := c.reboot(a, ""); err != nil {
		return ops, err
	}
	if _, err := converge(a.clientAddr, b.clientAddr, deadline); err != nil {
		return ops, err
	}
	return ops, nil
}
