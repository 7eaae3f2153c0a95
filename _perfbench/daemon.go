package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime and stime in /proc/<pid>/stat
// (USER_HZ, 100 on every mainstream Linux build).
const clockTick = 10 * time.Millisecond

// daemon is one sampled process started for a single setup.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan error
	stopped bool
}

// startDaemon execs a fresh sampled on a free loopback port with the
// benchmark's fixed flags, points the connections at it and waits
// until /readyz answers 200.
func startDaemon(path string, cs [2]*conn) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(path, "-addr", addr, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	for _, c := range cs {
		c.close()
		c.addr = addr
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("sampled exited during boot: %v", err)
		default:
		}
		if status, _, err := cs[0].do(http.MethodGet, "/readyz", "", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("sampled at %s not ready after 20s", addr)
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 15 seconds. It returns once the process is gone;
// later calls do nothing.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu returns the daemon's user plus system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one persistent HTTP/1.1 connection to the daemon, driven
// synchronously by the one goroutine that owns it: each request is
// written and its response read on that goroutine, with no transport
// goroutines handing the request around, so the driver adds as little
// scheduling as it can to every round trip it times.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	resp bytes.Buffer
}

func newConn() *conn { return &conn{} }

// do sends one request and reads the whole response. The returned body
// is valid until the next call on this conn. Any failure drops the
// connection; the next request dials a fresh one.
func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	status, err := c.roundTrip(method, path, ctype, body)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, c.resp.Bytes(), nil
}

func (c *conn) roundTrip(method, path, ctype string, body []byte) (int, error) {
	if err := c.send(request{method, path, ctype, body}); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	return c.recv()
}

// request is one HTTP request as the driver sends it.
type request struct {
	method, path, ctype string
	body                []byte
}

// pipeline sends every request of reqs with one flush, then reads their
// responses in order and hands each to got with its index; the body is
// valid only during that call. The daemon finds each next request
// already waiting instead of idling for a round trip. Any failure drops
// the connection.
func (c *conn) pipeline(reqs []request, got func(i, status int, body []byte) error) error {
	err := func() error {
		for _, r := range reqs {
			if err := c.send(r); err != nil {
				return err
			}
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		for i := range reqs {
			status, err := c.recv()
			if err != nil {
				return err
			}
			if err := got(i, status, c.resp.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		c.close()
	}
	return err
}

// send writes one request into the connection's buffer, dialing first
// if needed; it goes out on the next flush, or earlier if the buffer
// fills.
func (c *conn) send(r request) error {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.nc, c.br, c.bw = nc, bufio.NewReaderSize(nc, 64<<10), bufio.NewWriterSize(nc, 64<<10)
	}
	fmt.Fprintf(c.bw, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n", r.method, r.path, c.addr, len(r.body))
	if r.ctype != "" {
		fmt.Fprintf(c.bw, "Content-Type: %s\r\n", r.ctype)
	}
	c.bw.WriteString("\r\n")
	_, err := c.bw.Write(r.body)
	return err
}

// recv reads one response whole into c.resp.
func (c *conn) recv() (int, error) {
	if c.nc == nil {
		return 0, errors.New("connection closed by the daemon")
	}
	res, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(res.Body)
	res.Body.Close()
	if err == nil && res.Close {
		c.close()
	}
	return res.StatusCode, err
}

// expect is do plus a status check; any other status is an error
// carrying the response body.
func (c *conn) expect(want int, method, path, ctype string, body []byte) ([]byte, error) {
	status, resp, err := c.do(method, path, ctype, body)
	if err != nil {
		return nil, err
	}
	return resp, checkStatus(request{method, path, ctype, body}, want, status, resp)
}

// checkStatus is nil if a response to r has the status want, and
// otherwise an error carrying the response body.
func checkStatus(r request, want, status int, resp []byte) error {
	if status != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", r.method, r.path, status, want, bytes.TrimSpace(resp))
	}
	return nil
}

// close drops the connection, if any.
func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}
