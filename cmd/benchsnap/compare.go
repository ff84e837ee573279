package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strings"
)

// parseSnapshot reads `go test -bench` text from r into a Snapshot.
// Non-benchmark lines (PASS, ok, ...) pass through to passthrough so
// the snapshot never silently swallows a test failure.
func parseSnapshot(r io.Reader, passthrough io.Writer) (Snapshot, error) {
	var snap Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Package = addPackage(snap.Package, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
			} else {
				fmt.Fprintln(passthrough, line)
			}
		default:
			if line != "" {
				fmt.Fprintln(passthrough, line)
			}
		}
	}
	return snap, sc.Err()
}

// addPackage appends pkg to the space-separated package list unless a
// multi-package run's output has already named it.
func addPackage(list, pkg string) string {
	if list == "" {
		return pkg
	}
	for _, p := range strings.Fields(list) {
		if p == pkg {
			return list
		}
	}
	return list + " " + pkg
}

// compareResult is the outcome of one baseline comparison: the
// per-benchmark report lines plus how many regressed past a gate.
// hard counts the subset of failures that are allocs/op increases on
// benchmarks matching the -hard-allocs pattern; CI fails on those even
// where it tolerates ordinary (machine-variance-prone) ns/op drift.
type compareResult struct {
	lines    []string
	failures int
	hard     int
}

// rowKey identifies a benchmark row: the same benchmark at two
// GOMAXPROCS values is two rows.
type rowKey struct {
	name  string
	procs int
}

func (b Benchmark) key() rowKey { return rowKey{b.Name, b.Procs} }

// label names the row as go test prints it, with the -N suffix only
// above one proc.
func (b Benchmark) label() string {
	if b.Procs > 1 {
		return fmt.Sprintf("%s-%d", b.Name, b.Procs)
	}
	return b.Name
}

// compareSnapshots gates fresh against the committed baseline old,
// matching rows on (name, procs); a baseline row without procs (the
// other committed snapshots) matches its name at any procs. A
// benchmark fails when its ns/op grew more than thresholdPct percent,
// or when its allocs/op increased at all (the snapshot exists to pin
// the hot-path zero-alloc guarantees, so any increase is a
// regression). An allocs/op increase on a benchmark matching
// hardAllocs (nil = none) is additionally counted as a hard failure.
// Benchmarks present on only one side are reported but never fail the
// gate — renames should not break CI.
func compareSnapshots(old, fresh *Snapshot, thresholdPct float64, hardAllocs *regexp.Regexp) compareResult {
	var res compareResult
	oldBy := make(map[rowKey]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.key()] = b
	}
	seen := make(map[rowKey]bool, len(fresh.Benchmarks))
	for _, nb := range fresh.Benchmarks {
		ob, ok := oldBy[nb.key()]
		if !ok {
			ob, ok = oldBy[rowKey{nb.Name, 0}]
		}
		if !ok {
			res.lines = append(res.lines,
				fmt.Sprintf("new  %s: %.1f ns/op (no baseline)", nb.label(), nb.NsPerOp))
			continue
		}
		seen[ob.key()] = true
		failed := false
		if ob.NsPerOp > 0 {
			pct := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			if pct > thresholdPct {
				failed = true
				res.failures++
				res.lines = append(res.lines,
					fmt.Sprintf("FAIL %s: %.1f -> %.1f ns/op (%+.1f%%, gate +%.1f%%)",
						nb.label(), ob.NsPerOp, nb.NsPerOp, pct, thresholdPct))
			}
		}
		if nb.AllocsPerOp > ob.AllocsPerOp {
			failed = true
			res.failures++
			tag := "FAIL"
			if hardAllocs != nil && hardAllocs.MatchString(nb.Name) {
				res.hard++
				tag = "HARD"
			}
			res.lines = append(res.lines,
				fmt.Sprintf("%s %s: allocs/op %d -> %d (any increase fails)",
					tag, nb.label(), ob.AllocsPerOp, nb.AllocsPerOp))
		}
		if !failed {
			pct := 0.0
			if ob.NsPerOp > 0 {
				pct = 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			}
			res.lines = append(res.lines,
				fmt.Sprintf("ok   %s: %.1f -> %.1f ns/op (%+.1f%%)",
					nb.label(), ob.NsPerOp, nb.NsPerOp, pct))
		}
	}
	for _, ob := range old.Benchmarks {
		if !seen[ob.key()] {
			res.lines = append(res.lines,
				fmt.Sprintf("gone %s: in baseline but not in this run", ob.label()))
		}
	}
	return res
}
