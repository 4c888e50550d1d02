package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinaries builds the benchmark and rtrbenchd into a temp directory.
func buildBinaries(t *testing.T) (bench, daemon string) {
	t.Helper()
	dir := t.TempDir()
	bench, daemon = filepath.Join(dir, "perfbench"), filepath.Join(dir, "rtrbenchd")
	for _, args := range [][]string{{"-o", bench, "."}, {"-o", daemon, "repro/cmd/rtrbenchd"}} {
		cmd := exec.Command("go", append([]string{"build"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	return bench, daemon
}

// processGone reports whether pid no longer runs (gone, or a zombie nobody
// has reaped yet).
func processGone(pid int) bool {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if errors.Is(err, os.ErrNotExist) {
		return true
	}
	if err != nil {
		return false
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	return i >= 0 && i+2 < len(s) && s[i+2] == 'Z'
}

// TestServiceInterruptStopsDaemon interrupts a service run midway with
// SIGTERM: the benchmark must exit non-zero without a result, with every
// rtrbenchd it started stopped and every temp directory removed.
func TestServiceInterruptStopsDaemon(t *testing.T) {
	bench, daemon := buildBinaries(t)
	out := t.TempDir()
	cmd := exec.Command(bench, "-daemon", daemon, "-out", out,
		"--workload", "service", "--seed", "5", "--seconds", "30", "--trace", "0")
	cmd.Dir = ".." // the checkout root: BENCHMARK.json and the goldens
	var stdout strings.Builder
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var pids []int
	var dirs []string
	sc := bufio.NewScanner(stderr)
	for len(pids) < setupReps && sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 6 && f[1] == "rtrbenchd" && f[2] == "pid" {
			pid, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatal(err)
			}
			pids, dirs = append(pids, pid), append(dirs, f[5])
		}
	}
	if len(pids) < setupReps {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("saw %d daemon starts before stderr closed", len(pids))
	}
	// The last set-up daemon serves the timed window: interrupt mid-window.
	time.Sleep(time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, stderr)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("benchmark did not exit within 60s of SIGTERM")
	}
	if err == nil {
		t.Error("interrupted run exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result: %s", stdout.String())
	}
	for i, pid := range pids {
		if !processGone(pid) {
			t.Errorf("rtrbenchd pid %d still running", pid)
		}
		if _, err := os.Stat(dirs[i]); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("daemon directory %s left behind (%v)", dirs[i], err)
		}
	}
	left, err := os.ReadDir(filepath.Join(out, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp directories left behind: %v", left)
	}
}

// TestStopChildrenIsLastResort: a daemon no phase stopped — the state a panic
// leaves — is stopped and its directory removed by stopChildren.
func TestStopChildrenIsLastResort(t *testing.T) {
	_, daemon := buildBinaries(t)
	b := newBench(context.Background(), 1, daemon, t.TempDir())
	dir := filepath.Join(b.tmp, "d")
	d, err := b.startDaemon(dir)
	if err != nil {
		t.Fatal(err)
	}
	pid := d.cmd.Process.Pid
	b.stopChildren()
	if !processGone(pid) {
		t.Errorf("rtrbenchd pid %d still running", pid)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("daemon directory left behind (%v)", err)
	}
	if len(b.children) != 0 {
		t.Errorf("%d children still registered", len(b.children))
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	tr.add(span{id: 1, start: at(0), end: at(100)})
	tr.add(span{id: 2, parent: 1, start: at(10), end: at(40)})
	tr.add(span{id: 3, parent: 1, start: at(30), end: at(50)})  // overlaps 2
	tr.add(span{id: 4, parent: 1, start: at(90), end: at(120)}) // runs past 1
	got := tr.selfTimes()
	want := []time.Duration{50 * time.Millisecond, 30 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 4.6}, {0, 1}, {1, 5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
