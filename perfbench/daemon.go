package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ipgd process on a loopback ephemeral port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon execs ipgd and returns once /healthz answers 200.
func startDaemon(bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	// ipgd must not outlive the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Keep draining after the listen line so ipgd never blocks on a
		// full stderr pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("ipgd exited before listening")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ipgd did not report its listen address")
	}
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ipgd not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills ipgd if it hangs.
// SIGCONT wakes a paused ipgd so it can act on the SIGTERM.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	_ = d.cmd.Process.Signal(syscall.SIGCONT)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// pause stops ipgd with SIGSTOP and returns once every one of its threads
// is stopped, so none of its work overlaps what the benchmark does next.
func (d *daemon) pause() error {
	if err := d.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stopped, err := allStopped(d.pid())
		if err != nil || stopped {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ipgd did not stop on SIGSTOP")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *daemon) resume() error { return d.cmd.Process.Signal(syscall.SIGCONT) }

// allStopped reports whether every thread of the process is in the
// stopped state.
func allStopped(pid int) (bool, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return false, err
	}
	for _, t := range tasks {
		fields, err := statFields(fmt.Sprintf("/proc/%d/task/%s/stat", pid, t.Name()))
		if err != nil {
			return false, err
		}
		if fields[0] != "T" {
			return false, nil
		}
	}
	return true, nil
}

// statFields returns the fields of a /proc stat file after the
// parenthesized command name: the state is fields[0], utime fields[11],
// stime fields[12].
func statFields(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return nil, fmt.Errorf("short %s", path)
	}
	return fields, nil
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	fields, err := statFields(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// vmHWM reads the peak resident set size, in MiB.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSnapshot is one scrape of ipgd's /metrics, keyed by the full series
// name including labels.
type promSnapshot map[string]float64

func scrape(ctx context.Context, base string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := promSnapshot{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series whose name starts with prefix.
func (p promSnapshot) sum(prefix string) float64 {
	t := 0.0
	for k, v := range p {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// requestsWithCode sums ipgd_requests_total over endpoints for codes
// matching pred.
func (p promSnapshot) requestsWithCode(pred func(code int) bool) float64 {
	t := 0.0
	for k, v := range p {
		rest, ok := strings.CutPrefix(k, "ipgd_requests_total{")
		if !ok {
			continue
		}
		_, c, ok := strings.Cut(rest, "code=\"")
		if !ok {
			continue
		}
		code, err := strconv.Atoi(strings.TrimSuffix(c, "\"}"))
		if err == nil && pred(code) {
			t += v
		}
	}
	return t
}
