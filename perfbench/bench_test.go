package main

import (
	"net"
	"reflect"
	"testing"
	"time"

	"corundum/internal/baselines/corundumeng"
	"corundum/internal/pool"
	"corundum/internal/server"
	"corundum/internal/workloads"
)

func TestPlanDeterministic(t *testing.T) {
	for name := range Specs {
		a, err := NewPlan(name, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewPlan(name, 7, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different streams", name)
		}
		c, _ := NewPlan(name, 8, 1)
		if reflect.DeepEqual(a.Open, c.Open) || reflect.DeepEqual(a.Closed, c.Closed) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if Ops(a.Open) == 0 || Ops(a.Closed) == 0 {
			t.Errorf("%s: empty phase", name)
		}
	}
}

// TestPlanConnectionsDisjoint checks that no key is used by two
// connections, which is what makes every reply predictable.
func TestPlanConnectionsDisjoint(t *testing.T) {
	for name := range Specs {
		pl, _ := NewPlan(name, 3, 1)
		owner := map[uint64]int{}
		for c := 0; c < Conns; c++ {
			for _, ph := range [][]Req{pl.Preload[c], pl.Open[c], pl.Closed[c]} {
				for _, r := range ph {
					if o, ok := owner[r.Key]; ok && o != c {
						t.Fatalf("%s: key %d used by connections %d and %d", name, r.Key, o, c)
					}
					owner[r.Key] = c
				}
			}
		}
	}
}

func mustParse(t *testing.T, k Kind, line string) Outcome {
	t.Helper()
	o, err := ParseReply(k, []byte(line))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestModelRejectsWrongReplies(t *testing.T) {
	m := NewModel()
	if err := m.Check(Req{Kind: Set, Key: 1, Val: 10}, mustParse(t, Set, "+OK")); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(Req{Kind: Get, Key: 1}, mustParse(t, Get, ":10")); err != nil {
		t.Fatalf("right GET value rejected: %v", err)
	}
	if err := m.Check(Req{Kind: Get, Key: 1}, mustParse(t, Get, ":11")); err == nil {
		t.Error("wrong GET value accepted")
	}
	if err := m.Check(Req{Kind: Get, Key: 1}, mustParse(t, Get, "$-1")); err == nil {
		t.Error("GET of a present key answered nil accepted")
	}
	if err := m.Check(Req{Kind: Get, Key: 2}, mustParse(t, Get, ":10")); err == nil {
		t.Error("value for an absent key accepted")
	}
	if err := m.Check(Req{Kind: Del, Key: 2}, mustParse(t, Del, ":1")); err == nil {
		t.Error("DEL of an absent key answered :1 accepted")
	}
	if err := m.Check(Req{Kind: Del, Key: 1}, mustParse(t, Del, ":0")); err == nil {
		t.Error("DEL of a present key answered :0 accepted")
	}
	if _, err := ParseReply(Set, []byte(":1")); err == nil {
		t.Error("malformed SET reply accepted")
	}
}

func TestModelRefusedMutationIsUnknown(t *testing.T) {
	m := NewModel()
	m.Check(Req{Kind: Set, Key: 1, Val: 10}, Outcome{})
	busy := mustParse(t, Set, "-BUSY pool: all journal slots busy")
	if !busy.Refused {
		t.Fatal("-BUSY not counted as refused")
	}
	m.Check(Req{Kind: Set, Key: 1, Val: 20}, busy)
	// Either value may be there now.
	for _, v := range []string{":10", ":20"} {
		if err := m.Check(Req{Kind: Get, Key: 1}, mustParse(t, Get, v)); err != nil {
			t.Errorf("GET %s after a refused SET rejected: %v", v, err)
		}
	}
	m.Check(Req{Kind: Set, Key: 1, Val: 30}, Outcome{})
	if err := m.Check(Req{Kind: Get, Key: 1}, mustParse(t, Get, ":20")); err == nil {
		t.Error("stale value accepted after an acknowledged SET")
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) overlapping, and
	// [90,120) running past the root's end; [20,50) has a child [25,35).
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "a", Start: 90, End: 120},
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 35},
	}
	got := SelfTimes(spans)
	want := map[string]int64{
		"root": 100 - 40 - 10, // covered: [10,50) and [90,100)
		"a":    20 + 30,
		"b":    30 - 10,
		"c":    10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
}

func TestRungTimes(t *testing.T) {
	stream := []Req{{Kind: Get}, {Kind: Set}, {Kind: Set}}
	spans := []Span{
		{ID: 0, Parent: -1, Name: "rung.kv", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kv.get", Op: 0, Start: 0, End: 10},
		{ID: 2, Parent: 0, Name: "kv.apply", Op: 1, Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Op: 1, Start: 10, End: 20},
	}
	r, w := RungTimes(spans, "rung.kv", func(op int) bool { return stream[op].isRead() })
	if r != 10 || w != 30 {
		t.Errorf("RungTimes = %d, %d; want 10, 30", r, w)
	}
}

func TestUnits(t *testing.T) {
	s := []Req{{Kind: Set}, {Kind: Del}, {Kind: Get}, {Kind: Set}}
	got := units(s)
	want := []unit{{0, 2, false}, {2, 1, true}, {3, 1, false}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("units = %v, want %v", got, want)
	}
	long := make([]Req, Window+1)
	if us := units(long); len(us) != 2 || us[0].n != Window {
		t.Errorf("a run longer than the window was not split: %v", us)
	}
}

func TestKeyspaceShapeCounts(t *testing.T) {
	// Find three keys sharing a bucket and one in another bucket, with the
	// store's own hash.
	p, err := pool.Create("", pool.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	kv, err := workloads.NewKVStore(corundumeng.Wrap(p), serverBuckets)
	if err != nil {
		t.Fatal(err)
	}
	var same []uint64
	var other uint64
	for k := uint64(1); len(same) < 3 || other == 0; k++ {
		switch {
		case kv.Bucket(k) == kv.Bucket(1) && len(same) < 3:
			same = append(same, k)
		case kv.Bucket(k) != kv.Bucket(1) && other == 0:
			other = k
		}
	}
	a, b, c := same[0], same[1], same[2]
	pl := &Plan{}
	pl.Preload[0] = []Req{{Kind: Set, Key: a}, {Kind: Set, Key: b}, {Kind: Set, Key: c}}
	pl.Closed[0] = []Req{
		{Kind: Get, Key: a},     // deepest of three: 3 entries
		{Kind: Get, Key: c},     // head: 1
		{Kind: Get, Key: other}, // empty bucket: 0
		{Kind: Set, Key: b},     // update in place: 2
		{Kind: Del, Key: c},
		{Kind: Set, Key: other}, // insert into an empty chain: 0
	}
	sh, err := keyspaceShape(pl)
	if err != nil {
		t.Fatal(err)
	}
	if sh.EntriesPerGet != 4.0/3 || sh.EntriesPerSet != 1 || sh.MaxChain != 3 {
		t.Errorf("shape = %+v, want 4/3 entries per GET, 1 per SET, max chain 3", sh)
	}
}

// TestLoopsAgainstServer drives an in-process server through both load
// loops on two connections and checks every reply.
func TestLoopsAgainstServer(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := server.New(p, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	pl, err := NewPlan("mixed", 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var conns [Conns]*conn
	var models [Conns]*Model
	for c := range conns {
		if conns[c], err = dial(ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer conns[c].Close()
		models[c] = NewModel()
	}
	for _, phase := range [][Conns][]Req{pl.Preload, pl.Closed} {
		tl, err := onAll(func(c int) (tally, error) { return closedLoop(conns[c], phase[c], models[c]) })
		if err != nil || tl.failed > 0 || tl.attempted != Ops(phase) {
			t.Fatalf("closed loop: %+v, %v", tl, err)
		}
	}
	start := time.Now()
	tl, err := onAll(func(c int) (tally, error) {
		_, tl, err := openLoop(conns[c], pl.Open[c], models[c], start, 100*time.Microsecond)
		return tl, err
	})
	if err != nil || tl.failed > 0 || tl.attempted != Ops(pl.Open) {
		t.Fatalf("open loop: %+v, %v", tl, err)
	}
}
