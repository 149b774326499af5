package multidisk

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files instead of diffing against them")

// TestRunGolden pins Run's outputs bit for bit over the 3 layouts × 4
// methods on one fixed trace: every spindle's energy components, stats
// (latency and delay counts included), utilization and final timeout,
// the array totals, and — through debugHook — every per-period,
// per-spindle timeout decision with the cache size or partition it was
// taken at. Floats are written as their IEEE bits, so any change to the
// sizing, the timeout analysis or the power accounting shows as a diff.
// Regenerate with:
//
//	go test ./internal/multidisk/ -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	tr := arrayWorkload(t, 31)
	var buf bytes.Buffer
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	debugHook = func(d, ni int, nd int64, tc core.TimeoutChoice, pm float64, to simtime.Seconds, pages int64) {
		fmt.Fprintf(&buf, "  period disk=%d pages=%d ni=%d nd=%d alpha=%s floor=%s pm=%s to=%s\n",
			d, pages, ni, nd, bits(tc.Fit.Alpha), bits(float64(tc.Floor)), bits(pm), bits(float64(to)))
	}
	defer func() { debugHook = nil }()

	for _, layout := range []Layout{Striped, Ranged, HotCold} {
		for _, method := range []DiskMethod{AlwaysOn, TwoCompetitive, Partitioned, Joint} {
			fmt.Fprintf(&buf, "%v/%v\n", layout, method)
			cfg := arrayConfig(tr, 4, layout, method)
			cfg.MemSpec = scaledMem() // so the joint sizing moves
			cfg.Joint.DelayCap = 0.02
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			me := res.MemEnergy
			fmt.Fprintf(&buf, "  dur=%s reqs=%d acc=%d miss=%d lat=%s delayed=%d banks=%d parts=%v mem=%s/%s/%s\n",
				bits(float64(res.Duration)), res.ClientRequests, res.CacheAccesses, res.DiskAccesses,
				bits(float64(res.TotalLatency)), res.Delayed, res.Banks, res.Partitions,
				bits(float64(me.Static)), bits(float64(me.Dynamic)), bits(float64(me.Transition)))
			for d, dr := range res.Disks {
				e, s := dr.Energy, dr.Stats
				fmt.Fprintf(&buf, "  disk=%d energy=%s/%s/%s/%s reqs=%d bytes=%d busy=%s on=%s standby=%s spindowns=%d lat=%s maxlat=%s delayed=%d idle=%s/%d util=%s to=%s\n",
					d, bits(float64(e.Dynamic)), bits(float64(e.StaticOn)), bits(float64(e.Floor)), bits(float64(e.Transition)),
					s.Requests, s.BytesMoved, bits(float64(s.BusyTime)), bits(float64(s.OnTime)), bits(float64(s.StandbyTime)),
					s.SpinDowns, bits(float64(s.TotalLatency)), bits(float64(s.MaxLatency)), s.Delayed,
					bits(float64(s.IdleSum)), s.IdleCount, bits(dr.Utilization), bits(float64(dr.Timeout)))
			}
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "run.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("run output diverges at line %d:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("run output length changed: got %d lines, want %d", len(gotLines), len(wantLines))
}
