package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/remote"
)

// daemon is a vyrdd child process listening on loopback ports.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // verification protocol address
	opsAddr string // HTTP ops address
	logDone chan struct{}
}

// daemonStartTimeout bounds how long vyrdd may take to accept.
const daemonStartTimeout = 30 * time.Second

// startDaemon spawns vyrdd with its default flags plus loopback listeners
// on free ports, and returns once /healthz answers.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, fmt.Errorf("no vyrdd binary given (-vyrdd)")
	}
	cmd := exec.Command(path, "-listen", "127.0.0.1:0", "-ops", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		// vyrdd announces its listeners on stderr; after that the pipe is
		// drained so per-connection logging never blocks the daemon.
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		var a [2]string
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " specs on "); i >= 0 && a[0] == "" {
				a[0] = strings.TrimSpace(line[i+len(" specs on "):])
			}
			if i := strings.Index(line, "ops surface on http://"); i >= 0 && a[1] == "" {
				a[1] = strings.TrimSpace(line[i+len("ops surface on http://"):])
			}
			if !sent && a[0] != "" && a[1] != "" {
				addrs <- a
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addrs:
		d.addr, d.opsAddr = a[0], a[1]
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("vyrdd exited before announcing its listeners")
	case <-time.After(daemonStartTimeout):
		d.stop()
		return nil, fmt.Errorf("vyrdd did not announce its listeners within %v", daemonStartTimeout)
	}
	deadline := time.Now().Add(daemonStartTimeout)
	for {
		resp, err := http.Get("http://" + d.opsAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("vyrdd /healthz not ready within %v", daemonStartTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metrics scrapes the JSON /metrics body.
func (d *daemon) metrics() (remote.Metrics, error) {
	var m remote.Metrics
	resp, err := http.Get("http://" + d.opsAddr + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// pid is the daemon's process id, as /proc names it.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop terminates the daemon (SIGTERM, then SIGKILL after a grace period)
// and waits until it and its log reader have ended.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.logDone
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		return <-exited
	}
}
