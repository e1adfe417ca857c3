package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A proc is one serving process the benchmark started: icserver or iccoord
// on an ephemeral loopback port. Its standard error goes to a log file in
// the stack's directory.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// listenLine matches the log line icserver and iccoord print once their
// listener is bound, ending in the bound address.
var listenLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)

// startProc starts bin with args, logging to logPath, and returns once the
// process has printed its bound address.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = diesWithParent()
	cmd.Stdout = logf
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Copy the log until the process closes its standard error, picking
		// the bound address out of the stream on the way.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(logf, stderr)
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, p.err, logPath)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 60s; see %s", name, logPath)
	}
}

// diesWithParent has the kernel kill a child if the benchmark dies before
// it could stop the child itself (a crash skips deferred stops).
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stop asks the process to drain and exit, and kills it if it has not
// exited within 20 seconds. It returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// waitHealthy polls GET /healthz until check accepts the decoded body.
func waitHealthy(ctx context.Context, client *http.Client, p *proc, check func(map[string]any) bool) error {
	for {
		var body map[string]any
		if err := getJSON(ctx, client, p.base+"/healthz", &body); err == nil && check(body) {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited while starting: %v", p.name, p.err)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runTool runs one icindex step to completion.
func runTool(bin string, args []string, logPath string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = diesWithParent()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w; see %s", filepath.Base(bin), strings.Join(args, " "), err, logPath)
	}
	return nil
}

// procStatus reads one field of /proc/<pid>/status in kB.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time the process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields after
	// it are space separated, utime and stime being the 12th and 13th.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat CPU fields")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}
