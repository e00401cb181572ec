package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running cindserve process.
type proc struct {
	cmd    *exec.Cmd
	url    string
	stderr *lockedBuffer
	drain  sync.WaitGroup // the stdout drainer
}

// lockedBuffer collects a child's stderr for error reports.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(b.buf.String())
}

const listenPrefix = "cindserve: listening on "

// startServer runs cindserve with args on a free loopback port and returns
// once it has printed its listening line. The child is killed if this
// process dies first, so a crashed run leaves no server behind.
func startServer(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, stderr: &lockedBuffer{}}
	cmd.Stderr = p.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("start cindserve: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cindserve: %w", err)
	}
	urls := make(chan string, 1) // one send at most; the reader never blocks on it
	p.drain.Add(1)
	go func() {
		defer p.drain.Done()
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), listenPrefix); ok && !sent {
				urls <- u
				sent = true
			}
		}
		close(urls)
		_, _ = io.Copy(io.Discard, out) // drain to EOF; the pipe closes on exit
	}()
	select {
	case u, ok := <-urls:
		if ok {
			p.url = u
			return p, nil
		}
		err = fmt.Errorf("cindserve exited before listening: %s", p.stderr.String())
	case <-time.After(30 * time.Second):
		err = errors.New("cindserve did not start listening within 30s")
	}
	p.stop()
	return nil, err
}

// stop ends the server (SIGTERM, then SIGKILL after 10s) and waits until
// the process and its output drainer have exited.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant once we asked it to stop
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.drain.Wait()
}

// peakRSSMiB reads the process's VmHWM: the most resident memory it has
// held since it started.
func (p *proc) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
