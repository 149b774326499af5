package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// TestMain lets this test binary impersonate pmsim: when the marker env
// var is set, it runs main() on its arguments instead of the test suite.
// The interrupt test re-execs itself this way, so no separate binary
// build is needed.
func TestMain(m *testing.M) {
	if os.Getenv("PMSIM_BE_PMSIM") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func writeTestTrace(t *testing.T, path string, pageSize simtime.Bytes) {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     pageSize,
		Rate:         0.5 * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     1800,
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptFlushesJournal kills a child pmsim with SIGTERM while it
// lingers after its run and asserts the shutdown path did its job: exit
// status 143, and a decision-trace journal whose last record is a
// complete JSON line.
func TestInterruptFlushesJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a full pmsim run")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	journal := filepath.Join(dir, "joint.jsonl")
	writeTestTrace(t, trPath, 64*simtime.KB)

	cmd := exec.Command(os.Args[0],
		"-trace", trPath, "-method", "JOINT",
		"-mem", "128MB", "-bank", "1MB", "-period", "120",
		"-decision-trace", journal,
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m")
	cmd.Env = append(os.Environ(), "PMSIM_BE_PMSIM=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the linger line: the run is finished, records are queued
	// or buffered, and only the interrupt path can flush them now.
	lingering := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		var seen strings.Builder
		for {
			n, err := stderr.Read(buf)
			seen.Write(buf[:n])
			if strings.Contains(seen.String(), "lingering") {
				lingering <- nil
				return
			}
			if err != nil {
				lingering <- errors.New("child exited before lingering: " + seen.String())
				return
			}
		}
	}()
	select {
	case err := <-lingering:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("child never reached the linger phase")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("Wait = %v, want non-zero exit", err)
	}
	if code := exitErr.ExitCode(); code != 143 {
		t.Fatalf("exit code %d, want 143 (128+SIGTERM)", code)
	}

	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(b), "\n")
	if body == "" {
		t.Fatal("journal empty after interrupt")
	}
	if strings.HasSuffix(string(b), "\n") == false {
		t.Fatalf("journal does not end with a newline: %q", b[len(b)-64:])
	}
	lines := strings.Split(body, "\n")
	var rec struct {
		Seq int64 `json:"seq"`
	}
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %d/%d not complete JSON: %v\n%q", i+1, len(lines), err, line)
		}
	}
	if rec.Seq != int64(len(lines)) {
		t.Fatalf("last record seq %d, want %d (no records lost before it)", rec.Seq, len(lines))
	}
}

// TestRejectsMemoryPastFrameLimit: installed memory of 2^31 pages or
// more (32768 GB of 16 KB pages is exactly 2^31) makes pmsim exit 1 with
// an error naming the page cache's limit, for a fixed-size and for the
// joint method, where it used to exit 2 on a panic.
func TestRejectsMemoryPastFrameLimit(t *testing.T) {
	trPath := filepath.Join(t.TempDir(), "w.trc")
	writeTestTrace(t, trPath, 16*simtime.KB)
	for _, method := range []string{"ALWAYS-ON", "JOINT"} {
		cmd := exec.Command(os.Args[0], "-trace", trPath, "-method", method, "-mem", "32768GB", "-bank", "16MB")
		cmd.Env = append(os.Environ(), "PMSIM_BE_PMSIM=1")
		out, err := cmd.CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
			t.Fatalf("%s: err = %v, want exit status 1\n%s", method, err, out)
		}
		if !strings.Contains(string(out), "at most 2147483647") || strings.Contains(string(out), "panic") {
			t.Errorf("%s: output does not name the frame limit:\n%s", method, out)
		}
	}
}
