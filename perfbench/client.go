package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Window is the closed-loop pipeline depth of each connection.
const Window = 64

// conn is one client connection speaking the server's line protocol.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) Close() { c.c.Close() }

// readLine returns the next reply line without its CRLF. The slice is only
// valid until the next read.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// encoded is a phase's requests for one connection as one byte stream,
// with off[i] the start of request i (off[n] is the end), so a run of
// requests goes out in a single write.
type encoded struct {
	buf []byte
	off []int
}

func encode(reqs []Req) encoded {
	e := encoded{off: make([]int, 0, len(reqs)+1)}
	for _, r := range reqs {
		e.off = append(e.off, len(e.buf))
		e.buf = r.Encode(e.buf)
	}
	e.off = append(e.off, len(e.buf))
	return e
}

// tally counts one phase's requests.
type tally struct {
	attempted, failed int
}

// readReplies reads one reply per request, checking each against the
// connection's model. done(i) runs after reply i is read (it may be nil).
// A request without a reply (connection dropped) counts as failed.
func readReplies(c *conn, reqs []Req, m *Model, done func(i int)) (tally, error) {
	t := tally{attempted: len(reqs)}
	for i, r := range reqs {
		line, err := c.readLine()
		if err != nil {
			t.failed += len(reqs) - i
			return t, fmt.Errorf("reading reply %d of %d: %w", i, len(reqs), err)
		}
		o, err := ParseReply(r.Kind, line)
		if err != nil {
			return t, err
		}
		if o.Refused {
			t.failed++
		}
		if err := m.Check(r, o); err != nil {
			return t, &wrongReply{err}
		}
		if done != nil {
			done(i)
		}
	}
	return t, nil
}

// wrongReply marks a reply the model proved wrong: the run is incorrect,
// not merely degraded.
type wrongReply struct{ err error }

func (w *wrongReply) Error() string { return "wrong reply: " + w.err.Error() }

// closedLoop sends reqs on c keeping up to Window requests outstanding and
// checks every reply.
func closedLoop(c *conn, reqs []Req, m *Model) (tally, error) {
	e := encode(reqs)
	tokens := make(chan struct{}, Window) // one per pipeline slot
	for i := 0; i < Window; i++ {
		tokens <- struct{}{}
	}
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		werr <- func() error {
			for i := 0; i < len(reqs); {
				select {
				case <-tokens:
				case <-stop:
					return nil
				}
				j := i + 1
			more:
				for j < len(reqs) {
					select {
					case <-tokens:
						j++
					default:
						break more
					}
				}
				if _, err := c.c.Write(e.buf[e.off[i]:e.off[j]]); err != nil {
					return err
				}
				i = j
			}
			return nil
		}()
	}()
	t, err := readReplies(c, reqs, m, func(int) { tokens <- struct{}{} })
	close(stop)
	if err != nil {
		c.c.SetWriteDeadline(time.Now()) // unblock a sender stuck on a full socket
	}
	if werr := <-werr; err == nil && werr != nil {
		err = werr
	}
	return t, err
}

// openResult is one connection's open-loop timings, per request, in
// nanoseconds: lat from when the request was due to when its reply
// arrived, late from when it was due to when it was written.
type openResult struct {
	lat, late []int64
}

// openLoop sends reqs on c at a fixed rate: request i is due at
// start + i*interval, whatever the replies do. A sender that falls behind
// writes every overdue request at once; each is still timed from when it
// was due.
func openLoop(c *conn, reqs []Req, m *Model, start time.Time, interval time.Duration) (openResult, tally, error) {
	e := encode(reqs)
	res := openResult{lat: make([]int64, len(reqs)), late: make([]int64, len(reqs))}
	due := func(i int) time.Duration { return time.Duration(i) * interval }
	tm, err := newTimer()
	if err != nil {
		return res, tally{}, err
	}
	defer tm.Close()
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		werr <- func() error {
			for i := 0; i < len(reqs); {
				now := time.Since(start)
				if d := due(i); d > now {
					if err := tm.sleep(d - now); err != nil {
						return err
					}
					select {
					case <-stop:
						return nil
					default:
					}
					now = time.Since(start)
				}
				j := i
				for j < len(reqs) && due(j) <= now {
					res.late[j] = int64(now - due(j))
					j++
				}
				if _, err := c.c.Write(e.buf[e.off[i]:e.off[j]]); err != nil {
					return err
				}
				i = j
			}
			return nil
		}()
	}()
	t, err := readReplies(c, reqs, m, func(i int) {
		res.lat[i] = int64(time.Since(start) - due(i))
	})
	close(stop)
	if err != nil {
		c.c.SetWriteDeadline(time.Now()) // unblock a sender stuck on a full socket
	}
	if werr := <-werr; err == nil && werr != nil {
		err = werr
	}
	return res, t, err
}

// onAll runs fn for every connection concurrently and merges the tallies.
func onAll(fn func(c int) (tally, error)) (tally, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		sum  tally
		errs []error
	)
	for c := 0; c < Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t, err := fn(c)
			mu.Lock()
			defer mu.Unlock()
			sum.attempted += t.attempted
			sum.failed += t.failed
			if err != nil {
				errs = append(errs, fmt.Errorf("connection %d: %w", c, err))
			}
		}(c)
	}
	wg.Wait()
	return sum, errors.Join(errs...)
}

// bulk sends an admin command whose reply is a bulk string (INFO, STATS)
// and parses its "key: value" lines.
func (c *conn) bulk(cmd string) (map[string]string, error) {
	if _, err := io.WriteString(c.c, cmd+"\r\n"); err != nil {
		return nil, err
	}
	head, err := c.readLine()
	if err != nil {
		return nil, err
	}
	if len(head) < 2 || head[0] != '$' {
		return nil, fmt.Errorf("%s: unexpected reply %q", cmd, head)
	}
	n, err := strconv.Atoi(string(head[1:]))
	if err != nil {
		return nil, fmt.Errorf("%s: bad length %q", cmd, head)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return nil, err
	}
	kv := make(map[string]string)
	for _, line := range strings.Split(string(body[:n]), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok {
			kv[k] = v
		}
	}
	return kv, nil
}

// counters is a snapshot of the server's STATS and INFO.
type counters map[string]string

func (c *conn) snapshot() (counters, error) {
	st, err := c.bulk("STATS")
	if err != nil {
		return nil, err
	}
	info, err := c.bulk("INFO")
	if err != nil {
		return nil, err
	}
	for k, v := range info {
		st[k] = v
	}
	return counters(st), nil
}

func (s counters) num(key string) float64 {
	v, _ := strconv.ParseFloat(s[key], 64)
	return v
}

// delta is a counter's growth between two snapshots.
func delta(a, b counters, key string) float64 { return b.num(key) - a.num(key) }

// serverProc is a corundum-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	pool string
}

// startServer launches bin on a fresh pool file with only deployment flags
// and the device profile, and waits until it listens.
func startServer(bin, poolPath string) (*serverProc, error) {
	if err := os.Remove(poolPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pool", poolPath, "-profile", "OptaneDC")
	cmd.Stderr = os.Stderr
	// The server must not outlive the load generator, even if the
	// generator is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, pool: poolPath}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if ok {
			s.addr = a
			return s, nil
		}
		s.stop()
		return nil, errors.New("server exited before listening")
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("server did not listen within 60s")
	}
}

// stop kills the server and waits for it. Nothing of its state is needed
// afterwards, so there is no clean shutdown (which would write the whole
// pool image to disk).
func (s *serverProc) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	os.Remove(s.pool)
}

// cpuSeconds is the server's user+system CPU time so far, read from its
// process CPU clock, which counts in nanoseconds where /proc/<pid>/stat
// counts in clock ticks.
func (s *serverProc) cpuSeconds() (float64, error) {
	// The clock id of process pid's CPU-time clock (clock_getcpuclockid).
	clk := (^uint64(s.cmd.Process.Pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clk), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("reading the server's CPU clock: %w", e)
	}
	return float64(ts.Nano()) / 1e9, nil
}

// gomaxprocs reports the GOMAXPROCS the server runs with: the inherited
// GOMAXPROCS variable if set, else the runtime's default, the number of
// CPUs the process may run on.
func (s *serverProc) gomaxprocs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return countCPUList(strings.TrimSpace(rest))
		}
	}
	return 0
}

// countCPUList counts the CPUs in a list such as "0-3,6".
func countCPUList(s string) int {
	n := 0
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			continue
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				continue
			}
		}
		n += b - a + 1
	}
	return n
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timer is a Linux timerfd read through the runtime's network poller. A
// Go timer can wake a goroutine up to a millisecond late when the process
// is otherwise idle, because the poller then blocks with millisecond
// timeouts; a timerfd wakes the poller itself, at the kernel's timer
// precision, and unlike a blocking nanosleep it holds no processor while
// it waits.
type timer struct {
	fd int
	f  *os.File
}

func newTimer() (*timer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	// A non-blocking descriptor gives a File the poller waits on.
	return &timer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep parks the calling goroutine for d.
func (t *timer) sleep(d time.Duration) error {
	// struct itimerspec: a zero interval, then the relative expiry.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) Close() error { return t.f.Close() }
