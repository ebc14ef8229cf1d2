package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maras/internal/store"
)

// telemetryOff are the maras-server flags that turn off its request
// tracing, wide events, runtime sampler and metrics history; the
// traced surveil-cold run walks a server started with them and one with
// the default flags in turns.
var telemetryOff = []string{"-trace-journal", "0", "-wide-events", "0", "-runtime-sample", "0", "-history-scrape", "0"}

// serverProc is one running maras-server child process.
type serverProc struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	flags []string
	done  chan struct{}
	err   error // exit status, valid once done is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer runs bin in store mode over dir with the default flags
// plus extra, logging to logPath, and returns once /readyz answers
// 200. The child is killed if the benchmark dies first.
func startServer(bin, dir, logPath string, extra []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := append([]string{"-store", dir, "-addr", addr}, extra...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, flags...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, flags: flags, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func (p *serverProc) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("maras-server exited before becoming ready: %v", p.err)
		default:
		}
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("maras-server not ready after %v", limit)
}

// stop sends SIGTERM (the server drains and exits), escalating to
// SIGKILL after a grace period, and waits for the process to end.
func (p *serverProc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// procStatus reads one "Key:   value kB" field of /proc/<pid>/status
// in MiB.
func (p *serverProc) procStatusMB(key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, key+":"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, p.cmd.Process.Pid)
}

// sampleRSS samples the server's resident set (MiB) every interval
// until the returned function is called, which returns the samples.
func (p *serverProc) sampleRSS(interval time.Duration) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var out []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- out
				return
			case <-t.C:
				if v, err := p.procStatusMB("VmRSS"); err == nil {
					out = append(out, v)
				}
			}
		}
	}()
	return func() []float64 { close(stop); return <-done }
}

// cpuSeconds reads the process's user+system CPU time from
// /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unreadable /proc stat times")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds returns this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// metricsSnapshot is one scrape of /metrics: every series by its full
// name with labels, e.g. `maras_shed_total{reason="queue_full"}`.
type metricsSnapshot map[string]float64

// scrape fetches and parses the server's Prometheus text exposition.
func (p *serverProc) scrape(ctx context.Context, c *http.Client) (metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// assemblies asks the server's wide-event store how many requests it has
// answered whose slowest step was the cross-quarter trend assembly:
// the timeline and drift requests that re-assembled the trend after a
// rescan changed the quarter set.
func (p *serverProc) assemblies(ctx context.Context, c *http.Client) (float64, error) {
	u := p.base + "/debug/events?format=json&limit=1&where=kind=request&where=slowest=" + store.SpanAssemble
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/debug/events answered %d", resp.StatusCode)
	}
	var res struct {
		Matched int `json:"matched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return 0, fmt.Errorf("/debug/events: %w", err)
	}
	return float64(res.Matched), nil
}

// parseMetrics reads Prometheus text format, skipping comments.
func parseMetrics(r io.Reader) (metricsSnapshot, error) {
	out := metricsSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label set;
		// OpenMetrics exemplars are not requested, so it is the last
		// field.
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of the named metric, whatever its labels.
func (m metricsSnapshot) family(name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns after−before for the named family.
func delta(before, after metricsSnapshot, name string) float64 {
	return after.family(name) - before.family(name)
}
