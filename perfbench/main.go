// Command perfbench is corundum's serving benchmark. It runs
// corundum-server as its own process on the OptaneDC device profile, drives
// it from this process over two connections with a seeded, fixed-count
// request stream (an open-loop phase at a fixed rate, then a closed-loop
// phase with 64-deep pipelines), checks every reply against a model of each
// connection's keys, and prints the metrics by name and unit. With -trace 1
// it also replays the stream through a traced ladder of the server's
// layers (ladder.go) and prints per-layer metrics instead of end-to-end
// ones. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Run it through run.py, which builds the server and this program from the
// working tree first:
//
//	python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// e2eMetrics and layerMetrics are the metric sets printed with -trace 0
// and -trace 1; BENCHMARK.json lists the same names. Throughput, open-loop
// latency and server CPU per op are measured on every run but listed per
// layer: on the shared 2-vCPU seed host they drift with the host's load by
// more than any regression bound the benchmark may set (closed-loop
// throughput over ten runs spread by up to 0.27 of its median), and a read
// or write latency does not exist on a workload without that op.
var (
	e2eMetrics   = []string{"setup_s", "pm_bytes_per_key"}
	layerMetrics = append([]string{
		"ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "failed_share", "server_cpu_us_per_op",
		"pmem.fences_per_op", "pmem.flushes_per_op", "pmem.writes_per_op", "pmem.user_fences_per_op",
		"pmem.fence_ns_per_op", "pmem.flush_ns_per_op", "pmem.persist_ns_per_op",
		"journal.fences_per_op", "journal.log_ns_per_op",
		"alloc.fences_per_op", "alloc.slab_hit_share", "alloc.alloc_ns_per_op",
		"pool.tx_ns_per_op", "pool.commit_ns_per_op",
		"workloads.kv.entries_per_get", "workloads.kv.entries_per_set", "workloads.kv.max_chain",
		"workloads.kv.get_ns", "workloads.kv.apply_ns_per_op",
		"server.batcher.mean_batch", "server.batcher.commits_per_s", "server.batcher.wait_ns_per_op",
		"server.readpath.lockfree_share", "server.readpath.retries_per_get", "server.readpath.fallbacks_per_get",
		"server.frontend_ns_per_op",
		"loadgen.cpu_us_per_op", "loadgen.late_p99_us", "trace.overhead_pct",
	}, rungMetrics()...)
)

// rungMetrics names each ladder rung's time and device counters per op.
// The tcp rung's fence and flush time are pmem.fence_ns_per_op and
// pmem.flush_ns_per_op.
func rungMetrics() []string {
	var out []string
	for _, r := range rungNames {
		out = append(out, "ladder."+r+".ns_per_op", "ladder."+r+".fences_per_op", "ladder."+r+".flushes_per_op")
		if r != "tcp" {
			out = append(out, "ladder."+r+".fence_ns_per_op", "ladder."+r+".flush_ns_per_op")
		}
	}
	return out
}

// loadgenProcs is the load generator's GOMAXPROCS while it drives the
// server.
const loadgenProcs = 1

// setupsPerRun is how many times a -trace 0 run sets the server up;
// setup_s is their median. Only the last set-up is measured further.
const setupsPerRun = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, lookup or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated request stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "run length the op counts are sized for")
	flag.IntVar(&cfg.trace, "trace", 0, "1: print per-layer metrics from the traced ladder run")
	flag.StringVar(&cfg.serverBin, "server", "", "corundum-server binary")
	flag.StringVar(&cfg.dir, "dir", "", "directory for pool files, spans and the artifact")
	flag.StringVar(&cfg.revision, "revision", "unknown", "source revision recorded in the artifact")
	flag.Parse()
	if cfg.workload == "" || cfg.serverBin == "" || cfg.dir == "" || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	var wrong *wrongReply
	switch {
	case errors.As(err, &wrong):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
		printJSON(res)
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(res)
}

func printJSON(res result) {
	b, _ := json.Marshal(res) // plain structs and finite floats: cannot fail
	fmt.Println(string(b))
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	serverBin string
	dir       string
	revision  string
}

// deployment is one set-up server with its load connections.
type deployment struct {
	srv    *serverProc
	conns  [Conns]*conn
	admin  *conn
	models [Conns]*Model
	setupS float64
}

func (s *deployment) close() {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	if s.admin != nil {
		s.admin.Close()
	}
	s.srv.stop()
}

// setUp launches a server on a fresh pool, connects and preloads it: the
// set-up time runs from launch to the first measured request.
func setUp(cfg config, pl *Plan, i int, t *tally) (*deployment, error) {
	start := time.Now()
	srv, err := startServer(cfg.serverBin, filepath.Join(cfg.dir, fmt.Sprintf("kv-%d.pool", i)))
	if err != nil {
		return nil, err
	}
	s := &deployment{srv: srv}
	for c := range s.conns {
		if s.conns[c], err = dial(srv.addr); err != nil {
			s.close()
			return nil, err
		}
		s.models[c] = NewModel()
	}
	if s.admin, err = dial(srv.addr); err != nil {
		s.close()
		return nil, err
	}
	pt, err := onAll(func(c int) (tally, error) { return closedLoop(s.conns[c], pl.Preload[c], s.models[c]) })
	t.attempted += pt.attempted
	t.failed += pt.failed
	if err != nil {
		s.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// closedSegments is how many segments the closed-loop phase is cut into.
const closedSegments = 30

// segment is one closed-loop segment: its ops, wall time, and the CPU time
// the server and the load generator spent on it.
type segment struct {
	ops                            int
	seconds, serverCPU, loadgenCPU float64
}

// segMedian is the median over segments of f.
func segMedian(segs []segment, f func(segment) float64) float64 {
	xs := make([]float64, len(segs))
	for i, sg := range segs {
		xs[i] = f(sg)
	}
	return median(xs)
}

// measured is what the two measured phases observed.
type measured struct {
	open [Conns]openResult
	// The closed-loop phase runs in closedSegments consecutive segments;
	// per-op rates are reported as the median over segments, so a
	// transient stall on the shared host moves one segment, not the metric.
	segments         []segment
	closedS          float64
	snap             [3]counters // at the start of the open phase, between the phases, at the end
	live             int
	serverGOMAXPROCS int
}

func measure(s *deployment, pl *Plan, t *tally) (*measured, error) {
	var m measured
	var err error
	if m.snap[0], err = s.admin.snapshot(); err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) * Conns / pl.Spec.OpenRate)
	start := time.Now()
	ot, err := onAll(func(c int) (tally, error) {
		// The connections' schedules are offset by half an interval so the
		// combined send rate is even.
		r, t, err := openLoop(s.conns[c], pl.Open[c], s.models[c], start.Add(time.Duration(c)*interval/Conns), interval)
		m.open[c] = r
		return t, err
	})
	t.attempted += ot.attempted
	t.failed += ot.failed
	if err != nil {
		return nil, fmt.Errorf("open-loop phase: %w", err)
	}
	if m.snap[1], err = s.admin.snapshot(); err != nil {
		return nil, err
	}
	for k := 0; k < closedSegments; k++ {
		var part [Conns][]Req
		for c := range part {
			n := len(pl.Closed[c])
			part[c] = pl.Closed[c][n*k/closedSegments : n*(k+1)/closedSegments]
		}
		cpu0, err := s.srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		self0 := selfCPUSeconds()
		start := time.Now()
		ct, err := onAll(func(c int) (tally, error) { return closedLoop(s.conns[c], part[c], s.models[c]) })
		seg := segment{ops: Ops(part), seconds: time.Since(start).Seconds(), loadgenCPU: selfCPUSeconds() - self0}
		t.attempted += ct.attempted
		t.failed += ct.failed
		if err != nil {
			return nil, fmt.Errorf("closed-loop phase: %w", err)
		}
		cpu1, err := s.srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		seg.serverCPU = cpu1 - cpu0
		m.segments = append(m.segments, seg)
		m.closedS += seg.seconds
	}
	if m.snap[2], err = s.admin.snapshot(); err != nil {
		return nil, err
	}
	for _, md := range s.models {
		m.live += md.Live()
	}
	m.serverGOMAXPROCS = s.srv.gomaxprocs()
	return &m, nil
}

func run(cfg config) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	pl, err := NewPlan(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return res, err
	}
	// The load generator runs on one processor: its goroutines then hand
	// replies to each other without waking a second thread, and the server
	// keeps the other core. The ladder, which hosts its own servers, runs
	// with the default.
	procs := runtime.GOMAXPROCS(loadgenProcs)
	var t tally
	setups := setupsPerRun
	if cfg.trace == 1 {
		setups = 1
	}
	var setupS []float64
	var s *deployment
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		if s, err = setUp(cfg, pl, i, &t); err != nil {
			res.Attempted, res.Failed = t.attempted, t.failed
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s.setupS)
	}
	m, err := measure(s, pl, &t)
	s.close()
	res.Attempted, res.Failed = t.attempted, t.failed
	if err != nil {
		return res, err
	}
	all := e2e(pl, m, setupS, t)
	runtime.GOMAXPROCS(procs)
	var lad *LadderResult
	if cfg.trace == 1 {
		shape, err := keyspaceShape(pl)
		if err != nil {
			return res, fmt.Errorf("keyspace shape: %w", err)
		}
		tr := NewTracer(true)
		if lad, err = runLadder(pl, tr); err != nil {
			return res, fmt.Errorf("ladder: %w", err)
		}
		if err := tr.WriteCSV(filepath.Join(cfg.dir, cfg.workload+"-spans.csv")); err != nil {
			return res, err
		}
		layers(all, lad, shape)
	}
	names := e2eMetrics
	if cfg.trace == 1 {
		names = layerMetrics
	}
	fmt.Printf("perfbench %s seed %d trace %d: %d attempted, %d failed\n", cfg.workload, cfg.seed, cfg.trace, t.attempted, t.failed)
	for _, n := range names {
		v, ok := all[n]
		if !ok {
			return res, fmt.Errorf("metric %s was not computed", n)
		}
		res.Metrics[n] = v
		fmt.Printf("  %-34s %14.4f %s\n", n, v.Value, v.Unit)
	}
	art := artifact(cfg, pl, m, setupS, lad, all)
	path := filepath.Join(cfg.dir, fmt.Sprintf("%s-trace%d.json", cfg.workload, cfg.trace))
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return res, err
	}
	fmt.Printf("  artifact: %s\n", path)
	return res, nil
}

// quantile is the q-quantile of sorted xs, interpolating between ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// perOp divides, reporting 0 for an empty base (a workload without that
// kind of op).
func perOp(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// e2e computes the metrics the out-of-process run measures.
func e2e(pl *Plan, m *measured, setupS []float64, t tally) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	var reads, writes, late []float64
	for c, r := range m.open {
		for i, req := range pl.Open[c] {
			us := float64(r.lat[i]) / 1e3
			if req.isRead() {
				reads = append(reads, us)
			} else {
				writes = append(writes, us)
			}
			late = append(late, float64(r.late[i])/1e3)
		}
	}
	for _, xs := range [][]float64{reads, writes, late} {
		sort.Float64s(xs)
	}
	closedOps := float64(Ops(pl.Closed))
	put("ops_per_s", "1/s", segMedian(m.segments, func(sg segment) float64 { return float64(sg.ops) / sg.seconds }))
	put("setup_s", "s", median(setupS))
	put("server_cpu_us_per_op", "us", segMedian(m.segments, func(sg segment) float64 { return sg.serverCPU * 1e6 / float64(sg.ops) }))
	put("pm_bytes_per_key", "B", perOp(m.snap[2].num("heap_in_use_bytes"), float64(m.live)))

	put("read_p50_us", "us", quantile(reads, 0.5))
	put("read_p99_us", "us", quantile(reads, 0.99))
	put("write_p50_us", "us", quantile(writes, 0.5))
	put("write_p99_us", "us", quantile(writes, 0.99))
	put("failed_share", "share", perOp(float64(t.failed), float64(t.attempted)))
	put("loadgen.cpu_us_per_op", "us", segMedian(m.segments, func(sg segment) float64 { return sg.loadgenCPU * 1e6 / float64(sg.ops) }))
	put("loadgen.late_p99_us", "us", quantile(late, 0.99))

	// Device and server counters, windowed to the closed-loop phase.
	a, b := m.snap[1], m.snap[2]
	d := func(key string) float64 { return delta(a, b, key) }
	put("pmem.fences_per_op", "count", d("pmem_fences")/closedOps)
	put("pmem.flushes_per_op", "count", d("pmem_flushes")/closedOps)
	put("pmem.writes_per_op", "count", d("pmem_writes")/closedOps)
	put("pmem.user_fences_per_op", "count", d("pmem_fences_user_data")/closedOps)
	put("journal.fences_per_op", "count", d("pmem_fences_journal")/closedOps)
	put("alloc.fences_per_op", "count", d("pmem_fences_alloc_redo")/closedOps)
	put("server.batcher.mean_batch", "count", perOp(d("batched_ops"), d("batches_committed")))
	put("server.batcher.commits_per_s", "1/s", d("batches_committed")/m.closedS)
	gets := d("ops_get")
	put("server.readpath.lockfree_share", "share", perOp(d("reads_lockfree"), gets))
	put("server.readpath.retries_per_get", "count", perOp(d("read_retries"), gets))
	put("server.readpath.fallbacks_per_get", "count", perOp(d("read_fallbacks"), gets))
	return out
}

// layers adds the ladder's metrics and the keyspace shape.
func layers(out map[string]metric, l *LadderResult, sh Shape) {
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	ops, reads, writes := float64(l.Reads+l.Writes), float64(l.Reads), float64(l.Writes)
	total := func(r RungResult) float64 { return float64(r.ReadNS + r.WriteNS) }
	tcp, bat, kv, pl, pm := l.rung("tcp"), l.rung("batcher"), l.rung("kv"), l.rung("pool"), l.rung("pmem")
	for _, r := range l.Rungs {
		p := "ladder." + r.Name + "."
		if r.Name == "tcp" {
			p = "pmem."
		}
		put("ladder."+r.Name+".ns_per_op", "ns", total(r)/ops)
		put("ladder."+r.Name+".fences_per_op", "count", float64(r.Dev.Fences)/ops)
		put("ladder."+r.Name+".flushes_per_op", "count", float64(r.Dev.Flushes)/ops)
		put(p+"fence_ns_per_op", "ns", float64(r.Dev.FenceNanos)/ops)
		put(p+"flush_ns_per_op", "ns", float64(r.Dev.FlushNanos)/ops)
	}
	put("pmem.persist_ns_per_op", "ns", perOp(float64(pm.WriteNS), writes))
	put("pool.tx_ns_per_op", "ns", perOp(float64(pl.WriteNS-pm.WriteNS), writes))
	put("pool.commit_ns_per_op", "ns", perOp(float64(l.Self["pool.tx"]), writes))
	put("journal.log_ns_per_op", "ns", perOp(float64(l.Self["journal.log"]), writes))
	put("alloc.alloc_ns_per_op", "ns", perOp(float64(l.Self["alloc.alloc"]+l.Self["alloc.free"]), writes))
	put("alloc.slab_hit_share", "share", perOp(float64(l.SlabHits), float64(l.SlabHits+l.SlabMisses)))
	put("workloads.kv.apply_ns_per_op", "ns", perOp(float64(kv.WriteNS-pl.WriteNS), writes))
	put("workloads.kv.get_ns", "ns", perOp(float64(kv.ReadNS), reads))
	put("server.batcher.wait_ns_per_op", "ns", perOp(float64(bat.WriteNS-kv.WriteNS), writes))
	put("server.frontend_ns_per_op", "ns", (total(tcp)-total(bat))/ops)
	put("trace.overhead_pct", "%", 100*float64(l.TracedNS-l.UntracedNS)/float64(l.UntracedNS))
	put("workloads.kv.entries_per_get", "count", sh.EntriesPerGet)
	put("workloads.kv.entries_per_set", "count", sh.EntriesPerSet)
	put("workloads.kv.max_chain", "count", float64(sh.MaxChain))
}

// artifact describes the run: host, processes, device, stream, counters
// and every metric computed.
func artifact(cfg config, pl *Plan, m *measured, setupS []float64, l *LadderResult, all map[string]metric) map[string]any {
	art := map[string]any{
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"trace":               cfg.trace,
		"run_seconds":         cfg.seconds,
		"nproc":               runtime.NumCPU(),
		"loadgen_gomaxprocs":  loadgenProcs,
		"server_gomaxprocs":   m.serverGOMAXPROCS,
		"device_profile":      "OptaneDC",
		"connections":         Conns,
		"pipeline_depth":      Window,
		"open_rate_per_s":     pl.Spec.OpenRate,
		"closed_sizing_per_s": pl.Spec.ClosedRate,
		"ops_preload":         Ops(pl.Preload),
		"ops_open":            Ops(pl.Open),
		"ops_closed":          Ops(pl.Closed),
		"closed_seconds":      m.closedS,
		"setup_seconds":       setupS,
		"revision":            cfg.revision,
		"go_version":          runtime.Version(),
		"stats_window":        map[string]counters{"open_start": m.snap[0], "closed_start": m.snap[1], "closed_end": m.snap[2]},
		"metrics":             all,
	}
	if l != nil {
		art["ladder"] = l
		art["ladder_rungs"] = rungNames
	}
	return art
}
