package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// env is what every phase needs to reach the programs under test: the
// context that SIGINT cancels, the directory holding the built binaries, and
// a private scratch directory for system, journal and snapshot files.
type env struct {
	ctx  context.Context
	bin  string
	work string
}

// moduleRoot walks up from the working directory to the go.mod of the
// repository; the binaries under test are built from there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run shipbench from a checkout of the repository")
		}
		dir = parent
	}
}

// buildBinaries compiles the three programs under test into dir.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/shipd", "./cmd/shipsched", "./cmd/lpbound")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// freeAddr picks a free loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one running shipd process and the single keep-alive connection
// the benchmark drives it over.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    string        // file holding the daemon's stdout and stderr
	exited chan struct{} // closed once Wait has returned
	// startToReady is process start to the first 200 from GET /v1/readyz.
	startToReady time.Duration
}

// startDaemon launches shipd with args on a free port and waits until it is
// ready. If the process exits or never becomes ready, its output is the error.
func startDaemon(e env, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
	// The daemon writes straight into a file: nothing of the benchmark's runs
	// between it and its output, and the file can be read while it lives.
	logFile, err := os.CreateTemp(e.work, "shipd-*.log")
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	d.log = logFile.Name()
	d.cmd = exec.CommandContext(e.ctx, filepath.Join(e.bin, "shipd"), append([]string{"-addr", addr}, args...)...)
	d.cmd.Dir = e.work
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { _ = d.cmd.Wait(); close(d.exited) }()
	deadline := time.NewTimer(90 * time.Second)
	defer deadline.Stop()
	for {
		resp, err := d.client.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startToReady = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("shipd %s exited before becoming ready:\n%s", strings.Join(args, " "), d.output())
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("shipd %s not ready after 90 s:\n%s", strings.Join(args, " "), d.output())
		case <-time.After(time.Millisecond):
		}
	}
}

// output is what the daemon has printed so far.
func (d *daemon) output() []byte {
	data, _ := os.ReadFile(d.log) // diagnostics only: an unreadable log reads as empty
	return data
}

// stop shuts the daemon down (SIGTERM, so the journal is flushed and closed)
// and reaps it; a daemon that does not exit within ten seconds is killed.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// do sends one request and returns the status and the whole body, so the
// connection goes back to the pool and the next request reuses it.
func (d *daemon) do(method, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// apply sends one mutating op. 200 and 422 are decisions; anything else —
// transport error, 5xx, or a 404/409 the mirrored stream cannot produce — is
// a failed op.
func (d *daemon) apply(o op) (bool, error) {
	status, data, err := d.do(http.MethodPost, "/v1/"+o.Kind, o.body())
	if err != nil {
		return false, err
	}
	return decisionStatus(status, data)
}

func decisionStatus(status int, body []byte) (bool, error) {
	switch status {
	case http.StatusOK:
		return true, nil
	case http.StatusUnprocessableEntity:
		return false, nil
	}
	return false, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}

// get fetches path and requires a 200.
func (d *daemon) get(path string) ([]byte, error) {
	status, data, err := d.do(http.MethodGet, path, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	return data, nil
}

// read is the steady mix's interleaved GET /v1/state; the body is read in
// full and discarded.
func (d *daemon) read() error {
	_, err := d.get("/v1/state")
	return err
}

// state fetches and decodes GET /v1/state.
func (d *daemon) state() (service.StateResponse, error) {
	var st service.StateResponse
	data, err := d.get("/v1/state")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// counters fetches the daemon's telemetry counters from GET /v1/metrics.
func (d *daemon) counters() (map[string]int64, error) {
	data, err := d.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	var m service.MetricsResponse
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return m.Telemetry.Counters, nil
}
