package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout that
// holds cmd/welmaxd: `go -C bench run .` starts the benchmark inside
// bench/, `go run` from a parent module would start it at the root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "welmaxd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no checkout with cmd/welmaxd above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/welmaxd from the checkout's own source
// into <root>/.bench_build and returns the binary's path. With a warm
// Go build cache this is an up-to-date check, not a link.
func buildDaemon(root string) (string, error) {
	out := filepath.Join(root, ".bench_build", "welmaxd")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/welmaxd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build ./cmd/welmaxd: %v\n%s", err, msg)
	}
	return out, nil
}

// daemon is one spawned welmaxd process (backend or router). It is
// addressed only by the pid the benchmark itself started and is always
// waited for — a stale daemon silently answering the next run is the
// easiest way to get a wrong number here.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	addr   string // host:port of the API listener
	pprof  string // host:port of the -pprof-addr listener, "" when off
	exited chan struct{}
	waitEr error
	log    *os.File
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// freeAddr asks the OS for an unused loopback port. The listener is
// closed before the daemon binds it, so a race is possible; start
// treats the daemon failing to bind as a hard error rather than
// retrying, and never talks to a port its own child does not hold.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns bin with args plus an OS-assigned -addr (and
// -pprof-addr when withPprof), logging to <dir>/<name>.log, and waits
// until /healthz answers from that very process.
func startDaemon(bin, dir, name string, withPprof bool, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, addr: addr, exited: make(chan struct{})}
	full := append([]string{"-addr", addr}, args...)
	if withPprof {
		if d.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		full = append(full, "-pprof-addr", d.pprof)
	}
	if d.log, err = os.Create(filepath.Join(dir, name+".log")); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, full...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	go func() {
		d.waitEr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz every 2 ms. The child exiting first —
// which is what a port that is already bound produces — is a hard
// error: whatever answers on that port is not ours.
func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: 500 * time.Millisecond}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("bench: %s exited during start-up (port %s already bound?): %v\n%s", d.name, d.addr, d.waitEr, d.logTail())
		default:
		}
		resp, err := client.Get(d.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				select {
				case <-d.exited:
					return fmt.Errorf("bench: %s exited but port %s answers: a stale daemon holds it", d.name, d.addr)
				default:
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("bench: %s not healthy on %s within %v\n%s", d.name, d.addr, limit, d.logTail())
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop terminates the daemon by pid and waits for it: SIGTERM first
// (the daemon drains and exits), SIGKILL after 3 s.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-gone process is fine
		select {
		case <-d.exited:
		case <-time.After(3 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
}

// alive reports whether the spawned process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// clockTick is the kernel's USER_HZ; /proc/<pid>/stat reports CPU time
// in these units. It has been 100 on every Linux architecture Go
// supports, and sysconf is not reachable without cgo.
const clockTick = 100

// cpuSeconds is the utime+stime of the daemon process, all threads.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.name, fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
}

// procCPUSeconds reads utime+stime from a /proc/<pid>/stat file.
func procCPUSeconds(name, path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: malformed /proc stat for %s", name)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat for %s", name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc stat for %s", name)
	}
	return (ut + st) / clockTick, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: unparsable VmHWM for %s: %q", d.name, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for %s", d.name)
}

// fleet is the set of daemons one workload run spawned, with the
// address clients talk to (the router's for routed_warm).
type fleet struct {
	dir      string // fresh temp directory: logs and every -data-dir
	daemons  []*daemon
	backends []*daemon // the daemons that execute jobs (all but a router)
	front    *daemon   // where clients send requests
}

func (f *fleet) stop() {
	for i := len(f.daemons) - 1; i >= 0; i-- {
		f.daemons[i].stop()
	}
	os.RemoveAll(f.dir)
}

func (f *fleet) cpuSeconds() (float64, error) {
	var sum float64
	for _, d := range f.daemons {
		c, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (f *fleet) rssPeakMB() (float64, error) {
	var sum float64
	for _, d := range f.daemons {
		r, err := d.rssPeakMB()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// checkAlive fails when any daemon died under the workload.
func (f *fleet) checkAlive() error {
	for _, d := range f.daemons {
		if !d.alive() {
			return fmt.Errorf("bench: %s died during the run: %v\n%s", d.name, d.waitEr, d.logTail())
		}
	}
	return nil
}

// startFleet spawns the daemons of one workload under a fresh temp
// directory inside <root>/.bench_build. Backends get "-data-dir
// <dir>/<name>" when the workload asks for a disk tier; a routed
// workload gets two -node backends and a router in front.
func startFleet(ctx context.Context, bin, root string, w *workload, withPprof bool) (*fleet, error) {
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	spawn := func(name string, args ...string) (*daemon, error) {
		if w.dataDir {
			args = append(args, "-data-dir", filepath.Join(dir, name+"-data"))
		}
		d, err := startDaemon(bin, dir, name, withPprof, args...)
		if err != nil {
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		return d, nil
	}
	if !w.routed {
		d, err := spawn("welmaxd", w.flags...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends, f.front = []*daemon{d}, d
		return f, nil
	}
	var route []string
	for _, node := range []string{"b0", "b1"} {
		d, err := spawn(node, append([]string{"-node", node}, w.flags...)...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, d)
		route = append(route, node+"=http://"+d.addr)
	}
	rt, err := startDaemon(bin, dir, "router", withPprof, "-route", strings.Join(route, ","), "-probe-interval", "200ms")
	if err != nil {
		f.stop()
		return nil, err
	}
	f.daemons = append(f.daemons, rt)
	f.front = rt
	// The router serves 503 until its first probe round has seen the
	// backends; wait for both to be reported alive.
	if err := waitRouterReady(ctx, rt, len(f.backends)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// cpuSnapshot is CPU time consumed so far, in seconds: by the fleet's
// daemons, by this benchmark process, and by the whole machine as
// /proc/stat accounts it — busy (user+nice+system+irq+softirq over all
// cores) and steal (a vCPU was runnable but the hypervisor ran someone
// else).
type cpuSnapshot struct{ daemons, self, busy, steal float64 }

func snapshotCPU(f *fleet) (cpuSnapshot, error) {
	var c cpuSnapshot
	var err error
	if c.daemons, err = f.cpuSeconds(); err != nil {
		return c, err
	}
	if c.self, err = procCPUSeconds("bench", "/proc/self/stat"); err != nil {
		return c, err
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f9 := strings.Fields(line)
	if len(f9) < 9 || f9[0] != "cpu" {
		return c, fmt.Errorf("bench: unexpected /proc/stat head %q", line)
	}
	v := make([]float64, 8) // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseFloat(f9[i+1], 64); err != nil {
			return c, fmt.Errorf("bench: unparsable /proc/stat head %q", line)
		}
	}
	c.busy, c.steal = (v[0]+v[1]+v[2]+v[5]+v[6])/clockTick, v[7]/clockTick
	return c, nil
}
