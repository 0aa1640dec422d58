package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one lcds-server process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	addr string
}

// firstLine is the server's stdout: it hands the first line (the banner
// with the listen address) to a channel and discards the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	done bool
	ch   chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return len(p), nil
	}
	f.buf = append(f.buf, p...)
	if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
		f.done = true
		f.ch <- string(f.buf[:i])
	}
	return len(p), nil
}

// startServer execs lcds-server on a free loopback port and returns once
// /healthz answers 200, with the time that took.
func startServer(bin string, args ...string) (*server, time.Duration, error) {
	out := &firstLine{ch: make(chan string, 1)}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start lcds-server: %w", err)
	}
	s := &server{cmd: cmd}
	var banner string
	select {
	case banner = <-out.ch:
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("lcds-server printed no banner within 60s")
	}
	i := strings.Index(banner, "http://")
	if i < 0 {
		s.stop()
		return nil, 0, fmt.Errorf("unexpected lcds-server banner %q", banner)
	}
	s.addr = strings.TrimSuffix(banner[i+len("http://"):], "/")
	for {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, errors.New("lcds-server /healthz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(start), nil
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(u+s) * 10 * time.Millisecond, nil
}

// scrape reads the server's /metrics into a map keyed by series (name
// with its labels).
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
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
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// rebuildDurations returns the durations (ms) of every rebuild_end event
// on the server's flight-recorder timeline.
func (s *server) rebuildDurations() ([]float64, error) {
	resp, err := http.Get("http://" + s.addr + "/debug/timeline?since=0&max=4096")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var tl struct {
		Events []struct {
			Type       string `json:"type"`
			DurationNs uint64 `json:"duration_ns"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		return nil, fmt.Errorf("decode /debug/timeline: %w", err)
	}
	var out []float64
	for _, e := range tl.Events {
		if e.Type == "rebuild_end" {
			out = append(out, float64(e.DurationNs)/1e6)
		}
	}
	return out, nil
}

var (
	errStatus = errors.New("http status not 200")
	errParse  = errors.New("malformed http response")
)

// httpConn is a keep-alive HTTP/1.1 client on one connection. Requests are
// assembled in reused buffers and responses parsed in place (status line,
// Content-Length, body), so an op allocates nothing.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
	sent time.Time
}

func dialHTTP(addr string) (*httpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 8192), req: make([]byte, 0, 4096), body: make([]byte, 4096)}, nil
}

func (h *httpConn) sentAt() time.Time { return h.sent }

const hostHeader = " HTTP/1.1\r\nHost: perfbench\r\n"

// roundTrip sends h.req and returns the response body (valid until the
// next call).
func (h *httpConn) roundTrip() ([]byte, error) {
	if _, err := h.conn.Write(h.req); err != nil {
		return nil, err
	}
	h.sent = time.Now()
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	status := len(line) >= 12 && bytes.HasPrefix(line, []byte("HTTP/1.1 ")) && string(line[9:12]) == "200"
	length := -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > 16 && (line[0] == 'C' || line[0] == 'c') && bytes.EqualFold(line[:15], []byte("Content-Length:")) {
			n := 0
			for _, c := range line[15:] {
				if c >= '0' && c <= '9' {
					n = n*10 + int(c-'0')
				}
			}
			length = n
		}
	}
	if length < 0 {
		return nil, errParse
	}
	if length > len(h.body) {
		h.body = make([]byte, length)
	}
	body := h.body[:length]
	if _, err := io.ReadFull(h.br, body); err != nil {
		return nil, err
	}
	if !status {
		return nil, errStatus
	}
	return body, nil
}

// boolAfter parses the JSON boolean that follows key in body.
func boolAfter(body, key []byte) (bool, error) {
	i := bytes.Index(body, key)
	if i < 0 || i+len(key) >= len(body) {
		return false, errParse
	}
	switch body[i+len(key)] {
	case 't':
		return true, nil
	case 'f':
		return false, nil
	}
	return false, errParse
}

var (
	memberKey   = []byte(`"member":`)
	insertedKey = []byte(`"inserted":`)
	deletedKey  = []byte(`"deleted":`)
)

func (h *httpConn) contains(x uint64) (bool, error) {
	h.req = append(h.req[:0], "GET /contains?key="...)
	h.req = strconv.AppendUint(h.req, x, 10)
	h.req = append(h.req, hostHeader+"\r\n"...)
	body, err := h.roundTrip()
	if err != nil {
		return false, err
	}
	return boolAfter(body, memberKey)
}

func (h *httpConn) batch(keys []uint64, got []bool) error {
	h.req = append(h.req[:0], "POST /batch"+hostHeader+"Content-Type: application/json\r\nContent-Length: "...)
	// Reserve five digits for the length, then fill it in after the body.
	lenAt := len(h.req)
	h.req = append(h.req, "     \r\n\r\n"...)
	bodyAt := len(h.req)
	h.req = append(h.req, `{"keys":[`...)
	for i, k := range keys {
		if i > 0 {
			h.req = append(h.req, ',')
		}
		h.req = strconv.AppendUint(h.req, k, 10)
	}
	h.req = append(h.req, "]}"...)
	n := len(h.req) - bodyAt
	for i := lenAt + 4; i >= lenAt; i-- {
		h.req[i] = byte('0' + n%10)
		n /= 10
	}
	body, err := h.roundTrip()
	if err != nil {
		return err
	}
	i := bytes.IndexByte(body, '[')
	if i < 0 {
		return errParse
	}
	j := 0
	for p := i + 1; p < len(body) && body[p] != ']'; p++ {
		switch body[p] {
		case 't', 'f':
			if j == len(got) {
				return errParse
			}
			got[j] = body[p] == 't'
			j++
			for p+1 < len(body) && body[p+1] >= 'a' && body[p+1] <= 'z' {
				p++
			}
		}
	}
	if j != len(got) {
		return errParse
	}
	return nil
}

func (h *httpConn) write(x uint64, del bool) (bool, error) {
	path, field := "POST /insert?key=", insertedKey
	if del {
		path, field = "POST /delete?key=", deletedKey
	}
	h.req = append(h.req[:0], path...)
	h.req = strconv.AppendUint(h.req, x, 10)
	h.req = append(h.req, hostHeader+"Content-Length: 0\r\n\r\n"...)
	body, err := h.roundTrip()
	if err != nil {
		return false, err
	}
	return boolAfter(body, field)
}
