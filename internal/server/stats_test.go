package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"corundum/internal/pool"
	"corundum/internal/server"
)

// parseKV parses the "key: value" text that renderStats and renderInfo
// emit, failing on any malformed line so a formatting regression cannot
// hide behind a substring match.
func parseKV(t *testing.T, text string) map[string]string {
	t.Helper()
	kv := make(map[string]string)
	if rest, ok := strings.CutPrefix(text, "$"); ok { // bulk-reply length header
		if _, body, found := strings.Cut(rest, "\n"); found {
			text = body
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		key, val, ok := strings.Cut(line, ": ")
		if !ok || key == "" || val == "" {
			t.Fatalf("malformed stats line %q in:\n%s", line, text)
		}
		if _, dup := kv[key]; dup {
			t.Fatalf("duplicate key %q in:\n%s", key, text)
		}
		kv[key] = val
	}
	return kv
}

// TestStatsInfoRoundTrip pins the exact key set of STATS and INFO. These
// names are scraped by operators and by run.sh, so renaming one is a
// breaking change that must show up as a test diff, not in production.
func TestStatsInfoRoundTrip(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 8})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()
	mustReply(t, cl, "SET 1 10", "+OK")
	mustReply(t, cl, "GET 1", ":10")
	mustReply(t, cl, "DEL 1", ":1")
	if _, err := cl.cmd("SCAN 10"); err != nil {
		t.Fatal(err)
	}

	statsText, err := cl.cmd("STATS")
	if err != nil {
		t.Fatal(err)
	}
	stats := parseKV(t, statsText)
	intKeys := []string{
		"ops_get", "ops_set", "ops_del", "ops_scan",
		"connections_total", "batches_committed", "batched_ops",
		"pmem_writes", "pmem_flushes", "pmem_fences",
		"pmem_fences_user_data", "pmem_fences_journal",
		"pmem_fences_alloc_redo", "pmem_fences_recovery",
		"kv_buckets", "kv_get_entries_walked", "kv_set_entries_walked",
	}
	for _, k := range intKeys {
		v, ok := stats[k]
		if !ok {
			t.Errorf("STATS missing key %q", k)
			continue
		}
		if _, err := strconv.ParseUint(v, 10, 64); err != nil {
			t.Errorf("STATS %s = %q is not an integer", k, v)
		}
	}
	if v, ok := stats["mean_batch"]; !ok {
		t.Error("STATS missing key mean_batch")
	} else if _, err := strconv.ParseFloat(v, 64); err != nil {
		t.Errorf("STATS mean_batch = %q is not a float", v)
	}
	hist := 0
	for k := range stats {
		if strings.HasPrefix(k, "batch_hist_") {
			hist++
		}
	}
	if hist == 0 {
		t.Error("STATS has no batch_hist_* keys")
	}
	// Each op ran once on this fresh server, and the attribution totals
	// must be internally consistent.
	for _, k := range []string{"ops_get", "ops_set", "ops_del", "ops_scan"} {
		if stats[k] != "1" {
			t.Errorf("STATS %s = %s, want 1", k, stats[k])
		}
	}
	// A fresh store hashes fib-high; the GET found key 1 at the head of
	// its chain, and the SET inserted into an empty one.
	if stats["kv_hash"] != "fib-high" {
		t.Errorf("STATS kv_hash = %q, want fib-high", stats["kv_hash"])
	}
	if stats["kv_get_entries_walked"] != "1" || stats["kv_set_entries_walked"] != "0" {
		t.Errorf("STATS kv_get/set_entries_walked = %s/%s, want 1/0",
			stats["kv_get_entries_walked"], stats["kv_set_entries_walked"])
	}
	total, _ := strconv.ParseUint(stats["pmem_fences"], 10, 64)
	var byScope uint64
	for _, k := range []string{"pmem_fences_user_data", "pmem_fences_journal", "pmem_fences_alloc_redo", "pmem_fences_recovery"} {
		n, _ := strconv.ParseUint(stats[k], 10, 64)
		byScope += n
	}
	if total == 0 || byScope != total {
		t.Errorf("per-scope fences sum to %d, want pmem_fences = %d", byScope, total)
	}

	// SCRUB's verified walk reports the store's shape.
	mustReply(t, cl, "SET 2 20", "+OK")
	scrubText, err := cl.cmd("SCRUB")
	if err != nil {
		t.Fatal(err)
	}
	scrub := parseKV(t, scrubText)
	if scrub["kv_max_chain"] != "1" {
		t.Errorf("SCRUB kv_max_chain = %q, want 1", scrub["kv_max_chain"])
	}
	if lf, err := strconv.ParseFloat(scrub["kv_load_factor"], 64); err != nil || lf <= 0 {
		t.Errorf("SCRUB kv_load_factor = %q, want a positive float", scrub["kv_load_factor"])
	}

	infoText, err := cl.cmd("INFO")
	if err != nil {
		t.Fatal(err)
	}
	info := parseKV(t, infoText)
	for _, k := range []string{
		"server", "uptime_seconds", "pool_size_bytes", "pool_generation",
		"pool_root_offset", "journals", "journals_in_use",
		"recovery_rolled_back", "recovery_rolled_forward",
		"heap_in_use_bytes", "heap_free_bytes", "halted",
	} {
		if _, ok := info[k]; !ok {
			t.Errorf("INFO missing key %q", k)
		}
	}
	if info["server"] != "corundum-server" {
		t.Errorf("INFO server = %q", info["server"])
	}
	if _, err := strconv.ParseBool(info["halted"]); err != nil {
		t.Errorf("INFO halted = %q is not a bool", info["halted"])
	}
}

// TestMetricsEndpoint smoke-tests the Prometheus exposition: after real
// traffic, /metrics must carry the per-scope fence attribution and the
// transaction latency histogram in parseable text form.
func TestMetricsEndpoint(t *testing.T) {
	p, err := pool.Create("", pool.Config{Size: 32 << 20, Journals: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, addr := startServer(t, p, server.Options{MaxBatch: 8})
	defer srv.Close()

	cl := dial(t, addr)
	defer cl.close()
	for i := 0; i < 10; i++ {
		mustReply(t, cl, "SET "+strconv.Itoa(i)+" 1", "+OK")
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.DebugMux().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)
	text := string(body)
	for _, want := range []string{
		`pmem_fences_total{scope="journal"}`,
		`pmem_fences_total{scope="user-data"}`,
		`server_ops_total{op="set"}`,
		"server_batches_total",
		"pool_tx_seconds_bucket",
		"pool_tx_log_bytes_sum",
		"pool_heap_free_bytes",
		"pool_slab_hits_total",
		"pool_slab_cached_blocks",
		"# TYPE pmem_fences_total counter",
		`kv_buckets{hash="fib-high",shard="0"} 4096`,
		`kv_get_entries_walked_total{shard="0"}`,
		`kv_set_entries_walked_total{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The journal scope must have seen fences from the SET traffic above:
	// the series must exist with a non-zero value.
	var journalFences uint64
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, `pmem_fences_total{scope="journal"} `); ok {
			if journalFences, err = strconv.ParseUint(rest, 10, 64); err != nil {
				t.Fatalf("unparseable sample %q", line)
			}
		}
	}
	if journalFences == 0 {
		t.Errorf("pmem_fences_total{scope=journal} = 0 after 10 SETs:\n%s", text)
	}
}

// TestGetEntriesWalkedOncePerGet: each GET adds its own walk to
// kv_get_entries_walked exactly once, on the lock-free path and on the
// locked one alike. Keys 3, 2, 1 share the single bucket's chain.
func TestGetEntriesWalkedOncePerGet(t *testing.T) {
	for _, locked := range []bool{false, true} {
		p, err := pool.Create("", pool.Config{Size: 16 << 20, Journals: 8})
		if err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, p, server.Options{MaxBatch: 8, Buckets: 1, LockedReads: locked})
		cl := dial(t, addr)
		for k := 1; k <= 3; k++ {
			mustReply(t, cl, fmt.Sprintf("SET %d %d", k, k), "+OK")
		}
		mustReply(t, cl, "GET 3", ":3")  // head: 1 entry
		mustReply(t, cl, "GET 1", ":1")  // tail: 3 entries
		mustReply(t, cl, "GET 9", "$-1") // miss: 3 entries
		stats := parseKV(t, mustCmd(t, cl, "STATS"))
		if got := stats["kv_get_entries_walked"]; got != "7" {
			t.Errorf("locked=%v: kv_get_entries_walked = %s, want 7", locked, got)
		}
		if got := stats["kv_set_entries_walked"]; got != "3" { // 0 + 1 + 2
			t.Errorf("locked=%v: kv_set_entries_walked = %s, want 3", locked, got)
		}
		cl.close()
		srv.Close()
		p.Close()
	}
}
