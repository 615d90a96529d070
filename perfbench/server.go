package main

import (
	"bytes"
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
)

// Server is one lsserve child process on loopback.
type Server struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	log  *os.File
	Base string // http://127.0.0.1:port
}

// startServer execs bin with a free loopback port and extra flags, and
// returns once /healthz answers 200. Server output goes to logPath.
func startServer(bin, logPath string, extra ...string) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-trace-sample", "0"}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start lsserve: %w", err)
	}
	s := &Server{cmd: cmd, done: make(chan struct{}), log: logf, Base: "http://" + addr}
	go func() { cmd.Wait(); close(s.done) }() //nolint:errcheck // exit status is irrelevant; Stop reports stuck processes
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.Base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.done:
			logf.Close()
			return nil, fmt.Errorf("lsserve exited during start-up (see %s)", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, errors.New("lsserve did not answer /healthz within 30s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Stop sends SIGTERM, waits for a graceful exit, and kills the process if
// it has not exited after 20 seconds. It returns once the process is reaped.
func (s *Server) Stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an already-exited process is fine
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // reaped below either way
		<-s.done
	}
	s.log.Close()
}

// PeakRSSMiB is the process's resident-set high-water mark (VmHWM).
func (s *Server) PeakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// CPUTime is the process's user plus system CPU time so far.
func (s *Server) CPUTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck // a vanished file only lowers the total
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// Span is a client-side span around one HTTP call, with the server's span
// tree attached when the request asked for it.
type Span struct {
	Kind    string    `json:"kind"` // count, ingest, upload, stats
	StartMS float64   `json:"start_ms"`
	DurMS   float64   `json:"duration_ms"`
	Status  int       `json:"status"`
	LatMS   float64   `json:"latency_ms,omitempty"` // counts: see env.count for where it starts
	Server  *SpanData `json:"server,omitempty"`
}

// SpanData mirrors the service's exported span tree.
type SpanData struct {
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanData    `json:"children,omitempty"`
}

// Client issues the benchmark's HTTP calls over at most conns connections.
type Client struct {
	hc    *http.Client
	base  string
	epoch time.Time
}

func newClient(base string, conns int, epoch time.Time) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, epoch: epoch}
}

func (c *Client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the response body with its span.
func (c *Client) call(kind, method, path, ctype string, body []byte) ([]byte, Span, error) {
	t0 := time.Now()
	sp := Span{Kind: kind, StartMS: ms(t0.Sub(c.epoch))}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, sp, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.DurMS = ms(time.Since(t0))
		return nil, sp, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.DurMS = ms(time.Since(t0))
	sp.Status = resp.StatusCode
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, sp, err
}

func (c *Client) getJSON(kind, path string, v any) (Span, error) {
	b, sp, err := c.call(kind, http.MethodGet, path, "", nil)
	if err != nil {
		return sp, err
	}
	return sp, json.Unmarshal(b, v)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
