package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"jointpm/internal/serve"
)

// decisionLog folds a daemon's published decisions into an
// order-independent digest (the wrapping sum of one FNV-1a hash per
// decision over disk, period, banks, timeout bits, level and budget), so
// two runs agree exactly when they published the same decision set. It
// is the serve.Config.OnDecision callback.
type decisionLog struct {
	mu        sync.Mutex
	count     int64
	sum       uint64
	fallbacks int64
}

func (l *decisionLog) observe(d serve.Decision) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(d.Disk); i++ {
		h = (h ^ uint64(d.Disk[i])) * prime
	}
	for _, v := range []uint64{
		uint64(d.Period),
		uint64(d.Decision.Banks),
		math.Float64bits(float64(d.Decision.Timeout)),
		uint64(d.Decision.Level),
		math.Float64bits(d.Decision.BudgetW),
	} {
		for b := 0; b < 8; b++ {
			h = (h ^ (v >> (8 * b) & 0xff)) * prime
		}
	}
	l.mu.Lock()
	l.count++
	l.sum += h
	if d.Decision.Fallback {
		l.fallbacks++
	}
	l.mu.Unlock()
}

func (l *decisionLog) ref(refs int64) daemonRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	return daemonRef{Decisions: l.count, Digest: fmt.Sprintf("%016x", l.sum), Refs: refs}
}

// references holds the recorded outputs of every input set.
type references struct {
	Sets map[string]*setRef `json:"sets"`
}

type setRef struct {
	Ingest   daemonRef `json:"ingest"`
	Boundary daemonRef `json:"boundary"`
	Sweep    sweepRef  `json:"sweep"`
}

// daemonRef is a daemon workload's output for one stream round: how many
// decisions, their digest, and how many page refs landed.
type daemonRef struct {
	Decisions int64  `json:"decisions"`
	Digest    string `json:"digest"`
	Refs      int64  `json:"refs"`
}

// sweepRef is the sweep's output: the joint method's energy share and
// delayed-request rate at every Fig. 7 point, a digest over every row of
// every point, and a digest of the extarray table.
type sweepRef struct {
	Points         []pointRef `json:"points"`
	RowsDigest     string     `json:"rows_digest"`
	ExtArrayDigest string     `json:"extarray_digest"`
}

type pointRef struct {
	Label          string  `json:"label"`
	JointTotalPct  float64 `json:"joint_total_pct"`
	JointDelayedPS float64 `json:"joint_delayed_per_s"`
}

// defaultRefPaths are tried in order when -refs is not given: from the
// checkout root (how run.sh runs the command) and from this directory
// (how go test runs it).
var defaultRefPaths = []string{"perfbench/testdata/reference.json", "testdata/reference.json"}

func loadReferences(path string) (*references, error) {
	paths := defaultRefPaths
	if path != "" {
		paths = []string{path}
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var r references
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	return nil, fmt.Errorf("no reference file at %v", paths)
}

// forSet returns the recorded outputs of an input set.
func (r *references) forSet(set int64) (*setRef, error) {
	s, ok := r.Sets[strconv.FormatInt(set, 10)]
	if !ok {
		return nil, fmt.Errorf("no recorded reference for input set %d", set)
	}
	return s, nil
}

// recordReferences computes one round of every workload for every input
// set and writes the outputs the runs are checked against.
func recordReferences(path string, logw io.Writer) error {
	out := references{Sets: map[string]*setRef{}}
	for set := int64(1); set <= inputSets; set++ {
		var s setRef
		var err error
		if s.Ingest, err = ingestReference(set); err != nil {
			return fmt.Errorf("ingest set %d: %w", set, err)
		}
		if s.Boundary, err = boundaryReference(set); err != nil {
			return fmt.Errorf("boundary set %d: %w", set, err)
		}
		if s.Sweep, err = sweepReference(set); err != nil {
			return fmt.Errorf("sweep set %d: %w", set, err)
		}
		out.Sets[strconv.FormatInt(set, 10)] = &s
		fmt.Fprintf(logw, "input set %d: ingest %s, boundary %s, sweep %s\n",
			set, s.Ingest.Digest, s.Boundary.Digest, s.Sweep.RowsDigest)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
