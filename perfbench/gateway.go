package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"hpfq/internal/dataplane"
)

// gatewayMaxProcs is the GOMAXPROCS every hpfqgw subprocess runs with: one
// core for the gateway, one for the harness on a 2-CPU machine.
const gatewayMaxProcs = 1

// With at least two CPUs allowed, the program under test is pinned to
// sutCPU and the side that drives it to loadCPU — the first two CPUs in
// this process's affinity mask at start — so neither migrates or shares a
// core with the other.
var sutCPU, loadCPU, canPin = cpuPair()

// pinned reports whether the machine has the two CPUs pinning needs.
func pinned() bool { return canPin }

// startOn starts cmd with every thread of the child on cpu (when pinning):
// a child inherits the affinity of the thread that forks it, so the
// forking thread is locked, pinned to cpu for the fork, and re-pinned to
// the harness's CPU afterwards.
func startOn(cmd *exec.Cmd, cpu int) error {
	if !pinned() {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		return err
	}
	err := cmd.Start()
	if perr := setAffinity(0, loadCPU); err == nil {
		err = perr
	}
	return err
}

// gwProc is one running hpfqgw subprocess.
type gwProc struct {
	cmd     *exec.Cmd
	listen  string // bound listen address from the startup line
	admin   string // bound admin address ("" without -admin)
	readyNs int64  // exec until the startup line
	client  *http.Client

	mu      sync.Mutex
	stderr  []string // last lines, for diagnostics
	exited  chan struct{}
	waitErr error
}

// startGateway execs hpfqgw with args (plus -listen 127.0.0.1:0) and waits
// for its startup line, which names the bound listen address.
func startGateway(bin string, args []string) (*gwProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("no hpfqgw binary (-gateway)")
	}
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gatewayMaxProcs))
	// The gateway must not outlive the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	g := &gwProc{cmd: cmd, exited: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second}}
	t0 := time.Now()
	if err := startOn(cmd, sutCPU); err != nil {
		return nil, fmt.Errorf("exec hpfqgw: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pipe)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			g.mu.Lock()
			if len(g.stderr) < 64 {
				g.stderr = append(g.stderr, line)
			}
			if i := strings.Index(line, "admin server on http://"); i >= 0 {
				g.admin = strings.TrimSpace(line[i+len("admin server on http://"):])
			}
			// "hpfqgw: WF2Q+ 127.0.0.1:NNNN → upstream at ..." is the
			// startup line: every socket is bound by then.
			if f := strings.Fields(line); !signalled && len(f) >= 4 && f[0] == "hpfqgw:" && f[3] == "→" {
				g.listen = f[2]
				g.readyNs = time.Since(t0).Nanoseconds()
				signalled = true
				close(ready)
			}
			g.mu.Unlock()
		}
		g.waitErr = cmd.Wait()
		close(g.exited)
	}()
	select {
	case <-ready:
		return g, nil
	case <-g.exited:
		return nil, fmt.Errorf("hpfqgw exited before its startup line: %v\n%s", g.waitErr, g.log())
	case <-time.After(10 * time.Second):
		g.kill()
		return nil, fmt.Errorf("hpfqgw printed no startup line in 10 s\n%s", g.log())
	}
}

func (g *gwProc) pid() int { return g.cmd.Process.Pid }

func (g *gwProc) log() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.stderr, "\n")
}

// status fetches /api/status, decoding it into st unless st is nil (the
// load-time poll, which must not spend harness CPU on JSON), and reports
// the round trip.
func (g *gwProc) status(st *dataplane.Status) (time.Duration, error) {
	t := time.Now()
	resp, err := g.client.Get("http://" + g.admin + "/api/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/api/status: %s", resp.Status)
	}
	if st == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(st)
	}
	return time.Since(t), err
}

// stop asks the gateway to drain and exit (SIGTERM) and waits; after 10 s
// it is killed.
func (g *gwProc) stop() error {
	g.client.CloseIdleConnections()
	if err := g.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-g.exited:
			return nil
		default:
			return err
		}
	}
	select {
	case <-g.exited:
		return g.waitErr
	case <-time.After(10 * time.Second):
		g.kill()
		return fmt.Errorf("hpfqgw did not exit within 10 s of SIGTERM")
	}
}

func (g *gwProc) kill() {
	g.cmd.Process.Kill()
	<-g.exited
}
