package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"jointpm/internal/simtime"
	"jointpm/internal/trace"
	"jointpm/internal/workload"
)

// TestMain lets this test binary impersonate jointpmd: with the marker
// env var set it runs main() on its arguments instead of the suite, so
// the daemon tests re-exec themselves rather than building a binary.
func TestMain(m *testing.M) {
	if os.Getenv("JOINTPMD_BE_DAEMON") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func writeTestTrace(t *testing.T, path string) {
	t.Helper()
	tr, err := workload.Generate(workload.Config{
		DataSetBytes: 64 * simtime.MB,
		PageSize:     64 * simtime.KB,
		Rate:         0.5 * float64(simtime.MB),
		Popularity:   0.1,
		Duration:     1800,
		Classes:      workload.SPECWeb99Classes(64),
		Seed:         7,
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

func daemonArgs(snap string) []string {
	args := []string{
		"-disk", "d0", "-mem", "128MB", "-bank", "1MB", "-period", "120",
	}
	if snap != "" {
		args = append(args, "-snapshot", snap, "-snapshot-every", "2")
	}
	return args
}

func decisionLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "decision ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestWarmResumeAfterSigterm is the daemon smoke: stream part of a
// trace into jointpmd, SIGTERM it mid-stream, restart it on the full
// stream, and require the concatenated decision lines to be exactly the
// uninterrupted run's.
func TestWarmResumeAfterSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs daemon runs")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	snap := filepath.Join(dir, "d.snap")
	writeTestTrace(t, trPath)
	traceBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one uninterrupted daemon over the whole stream.
	ref := exec.Command(os.Args[0], daemonArgs("")...)
	ref.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
	ref.Stdin = bytes.NewReader(traceBytes)
	refOut, err := ref.Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := decisionLines(string(refOut))
	if len(want) < 10 {
		t.Fatalf("reference run printed %d decisions", len(want))
	}

	// First life: feed ~60%% of the raw stream, hold the pipe open so
	// the daemon blocks mid-read, then SIGTERM it. The handler runs the
	// shutdown stack, which writes the checkpoint and exits 143.
	cmd := exec.Command(os.Args[0], daemonArgs(snap)...)
	cmd.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var mu sync.Mutex
	var got1 []string
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if l := sc.Text(); strings.HasPrefix(l, "decision ") {
				mu.Lock()
				got1 = append(got1, l)
				mu.Unlock()
			}
		}
	}()
	if _, err := stdin.Write(traceBytes[:len(traceBytes)*6/10]); err != nil {
		t.Fatal(err)
	}

	// Wait until the daemon has demonstrably made progress, so the
	// restart genuinely resumes mid-run rather than from scratch.
	deadline := time.Now().Add(time.Minute)
	for {
		mu.Lock()
		n := len(got1)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon closed only %d periods on the partial stream", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 143 {
		t.Fatalf("Wait = %v, want exit 143 (128+SIGTERM)", err)
	}
	<-scanDone
	stdin.Close()

	// Second life: full stream from the start; the daemon restores the
	// checkpoint and skips what it already consumed.
	cmd2 := exec.Command(os.Args[0], daemonArgs(snap)...)
	cmd2.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
	cmd2.Stdin = bytes.NewReader(traceBytes)
	var stderr2 bytes.Buffer
	cmd2.Stderr = &stderr2
	out2, err := cmd2.Output()
	if err != nil {
		t.Fatalf("restarted run: %v\nstderr: %s", err, stderr2.String())
	}
	if !strings.Contains(stderr2.String(), "restored disk=d0") {
		t.Fatalf("restart did not report a restore:\n%s", stderr2.String())
	}

	got := append(got1, decisionLines(string(out2))...)
	if len(got) != len(want) {
		t.Fatalf("interrupted+restarted run printed %d decisions, reference %d\ngot: %v", len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision %d diverges after warm resume:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestColdStartOnUnusableSnapshot: a snapshot file the daemon cannot
// restore — corrupt, or a header of the retired version 5 — makes it say
// so on stderr and start cold: it prints the decision lines of a run
// without a snapshot, exits 0, and leaves a checkpoint it can restore.
func TestColdStartOnUnusableSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs daemon runs")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	writeTestTrace(t, trPath)
	traceBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	run := func(snap string) (string, string, error) {
		cmd := exec.Command(os.Args[0], daemonArgs(snap)...)
		cmd.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
		cmd.Stdin = bytes.NewReader(traceBytes)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		return string(out), stderr.String(), err
	}
	refOut, _, err := run("")
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := decisionLines(refOut)
	if len(want) < 10 {
		t.Fatalf("reference run printed %d decisions", len(want))
	}
	// magic, version 5, an empty payload's length and checksum
	v5 := append([]byte("JPMS\x05"), make([]byte, 12)...)
	for name, content := range map[string][]byte{
		"corrupt": []byte("JPMS\x06 not a checkpoint"),
		"v5":      v5,
	} {
		snap := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(snap, content, 0o644); err != nil {
			t.Fatal(err)
		}
		out, stderr, err := run(snap)
		if err != nil {
			t.Fatalf("%s: daemon run: %v\nstderr: %s", name, err, stderr)
		}
		if !strings.Contains(stderr, "starting cold") {
			t.Fatalf("%s: the daemon did not report a cold start:\n%s", name, stderr)
		}
		if got := decisionLines(out); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s: printed %d decisions, the run without a snapshot %d", name, len(got), len(want))
		}
		// The shutdown checkpoint replaced the file: a rerun restores it.
		if _, stderr, err := run(snap); err != nil || !strings.Contains(stderr, "restored disk=d0") {
			t.Fatalf("%s: rerun on the daemon's own checkpoint: %v\n%s", name, err, stderr)
		}
	}
}

// TestPowerCapUncappedDifferential is the daemon re-exec level of the
// fleet differential suite: the same stream run uncapped, with an
// explicit "-power-cap-w +Inf", and with a slack finite cap must print
// identical decision lines.
func TestPowerCapUncappedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs daemon runs")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	writeTestTrace(t, trPath)
	traceBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}

	run := func(extra ...string) []string {
		cmd := exec.Command(os.Args[0], append(daemonArgs(""), extra...)...)
		cmd.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
		cmd.Stdin = bytes.NewReader(traceBytes)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("daemon run %v: %v", extra, err)
		}
		return decisionLines(string(out))
	}

	want := run()
	if len(want) < 10 {
		t.Fatalf("reference run printed %d decisions", len(want))
	}
	for _, extra := range [][]string{
		{"-power-cap-w", "+Inf"},
		{"-power-cap-w", "1000000"},
	} {
		got := run(extra...)
		if len(got) != len(want) {
			t.Fatalf("%v printed %d decisions, reference %d", extra, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v decision %d diverges:\n got %s\nwant %s", extra, i, got[i], want[i])
			}
		}
	}
}

// TestSocketStream drives the daemon's listener mode: two connections
// stream two disks over a unix socket, and the daemon emits decision
// lines tagged with each disk's name.
func TestSocketStream(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a daemon run")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	writeTestTrace(t, trPath)
	traceBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")

	cmd := exec.Command(os.Args[0], "-listen", "unix:"+sock,
		"-mem", "128MB", "-bank", "1MB", "-period", "120")
	cmd.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the socket to appear.
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never created the socket")
		}
		time.Sleep(10 * time.Millisecond)
	}

	stream := func(disk string) {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "disk "+disk+"\n"); err != nil {
			t.Error(err)
			return
		}
		if _, err := conn.Write(traceBytes); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); stream("sda") }()
	go func() { defer wg.Done(); stream("sdb") }()
	wg.Wait()

	// Collect decisions until both disks have reported every period.
	counts := map[string]int{}
	sc := bufio.NewScanner(stdout)
	timer := time.AfterFunc(time.Minute, func() { cmd.Process.Kill() })
	defer timer.Stop()
	for sc.Scan() {
		l := sc.Text()
		if !strings.HasPrefix(l, "decision ") {
			continue
		}
		for _, d := range []string{"sda", "sdb"} {
			if strings.Contains(l, "disk="+d+" ") {
				counts[d]++
			}
		}
		if counts["sda"] >= 14 && counts["sdb"] >= 14 {
			break
		}
	}
	if counts["sda"] < 14 || counts["sdb"] < 14 {
		t.Fatalf("decision counts %v, want at least 14 per disk", counts)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The handler closes the listener; the accept loop may then return
	// cleanly (exit 0) before the handler's own exit(143) — both are a
	// graceful stop.
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if err != nil && (!errors.As(err, &exitErr) || exitErr.ExitCode() != 143) {
		t.Fatalf("Wait = %v, want clean exit or 143", err)
	}
}

// TestDebugEndpointsAndSigquit is the introspection smoke: a live
// daemon answers /debug/status and /debug/periods, exposes the latency
// histograms and the energy split on /metrics, and dumps its flight
// recorders to stderr on SIGQUIT without dying.
func TestDebugEndpointsAndSigquit(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs a daemon run")
	}
	dir := t.TempDir()
	trPath := filepath.Join(dir, "w.trc")
	writeTestTrace(t, trPath)
	traceBytes, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}

	args := append(daemonArgs(""), "-metrics-addr", "127.0.0.1:0", "-flight", "8")
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "JOINTPMD_BE_DAEMON=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var mu sync.Mutex
	var decisions int
	var errLines []string
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "decision ") {
				mu.Lock()
				decisions++
				mu.Unlock()
			}
		}
	}()
	scanErrDone := make(chan struct{})
	go func() {
		defer close(scanErrDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			mu.Lock()
			errLines = append(errLines, sc.Text())
			mu.Unlock()
		}
	}()
	stderrHas := func(substr string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range errLines {
			if strings.Contains(l, substr) {
				return true
			}
		}
		return false
	}

	// The daemon prints the bound metrics address on stderr.
	var baseURL string
	deadline := time.Now().Add(time.Minute)
	for baseURL == "" {
		mu.Lock()
		for _, l := range errLines {
			if rest, ok := strings.CutPrefix(l, "jointpmd: metrics on http://"); ok {
				baseURL = "http://" + strings.TrimSuffix(rest, "/metrics")
			}
		}
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("daemon never announced its metrics address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := stdin.Write(traceBytes[:len(traceBytes)*6/10]); err != nil {
		t.Fatal(err)
	}
	for {
		mu.Lock()
		n := decisions
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon closed only %d periods on the partial stream", n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(baseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// /debug/status: the d0 shard reports periods, a cumulative energy
	// split, and decide quantiles from the flight recorder.
	_, body := get("/debug/status")
	var st struct {
		FlightDepth int `json:"flight_depth"`
		Shards      []struct {
			Disk        string  `json:"disk"`
			Periods     int64   `json:"periods"`
			DecideP99Ms float64 `json:"decide_p99_ms"`
			Energy      struct {
				MemNapJ     float64 `json:"mem_nap_j"`
				DiskActiveJ float64 `json:"disk_active_j"`
			} `json:"energy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status JSON: %v\n%s", err, body)
	}
	if st.FlightDepth != 8 || len(st.Shards) != 1 || st.Shards[0].Disk != "d0" {
		t.Fatalf("status = %s", body)
	}
	if s := st.Shards[0]; s.Periods < 3 || s.Energy.MemNapJ <= 0 || s.DecideP99Ms <= 0 {
		t.Errorf("d0 status = %+v", s)
	}

	// /debug/periods with filters; unknown disk 404s.
	_, body = get("/debug/periods?disk=d0&n=2")
	var pr struct {
		Disks map[string][]struct {
			Period int64 `json:"period"`
		} `json:"disks"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("periods JSON: %v\n%s", err, body)
	}
	if len(pr.Disks["d0"]) != 2 {
		t.Fatalf("periods?n=2 returned %d records:\n%s", len(pr.Disks["d0"]), body)
	}
	if code, _ := get("/debug/periods?disk=nope"); code != http.StatusNotFound {
		t.Errorf("unknown disk status = %d, want 404", code)
	}

	// /metrics carries the lifecycle histograms and the energy split.
	_, body = get("/metrics")
	for _, want := range []string{
		"jointpm_serve_decide_wall_s_p99 ",
		"jointpm_serve_ingest_ns_per_ref_count ",
		"jointpm_serve_boundary_to_emit_s_p50 ",
		"jointpm_serve_energy_total_j ",
		"jointpm_serve_energy_mem_nap_j ",
		"jointpm_serve_uptime_s ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// SIGQUIT dumps the flight recorder and the daemon keeps serving.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for !stderrHas("# flight disk=d0") {
		if time.Now().After(deadline) {
			t.Fatal("no flight dump on stderr after SIGQUIT")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, _ := get("/debug/status"); code != http.StatusOK {
		t.Errorf("daemon stopped serving after SIGQUIT: status %d", code)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 143 {
		t.Fatalf("Wait = %v, want exit 143 (128+SIGTERM)", err)
	}
	<-scanErrDone
	stdin.Close()
}
