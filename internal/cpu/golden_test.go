package cpu

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"ampsched/internal/workload"
)

// goldenCyclesBefore and goldenCyclesAfter bracket the mid-run
// Unbind/Bind of every golden case; the odd split lands the squash at
// an arbitrary pipeline state rather than a round cycle.
const (
	goldenCyclesBefore = 31_337
	goldenCyclesAfter  = 48_663
)

const goldenPath = "testdata/core_golden.txt"

// goldenCore is one core variant every golden benchmark runs on.
type goldenCore struct {
	name  string
	cfg   *Config
	units *[NumUnitKinds]UnitSpec // nil: the config's own units
}

// goldenCores are the two paper cores and the INT core reconfigured
// to the morphed-strong unit set (non-pipelined integer and pipelined
// FP units at once).
func goldenCores() []goldenCore {
	strong := MorphStrongUnits()
	return []goldenCore{
		{"int", IntCoreConfig(), nil},
		{"fp", FPCoreConfig(), nil},
		{"int+morph", IntCoreConfig(), &strong},
	}
}

// goldenDigest runs bench on core for the golden cycle budget, with an
// Unbind/Bind of the same thread in the middle, and hashes everything
// the core exposes: the squash count, Stats() (activity ledger,
// committed count, cache counters) and the thread's arch counters.
func goldenDigest(core *Core, bench *workload.Benchmark) string {
	gen := workload.NewGenerator(bench, 7, 0)
	arch := &ThreadArch{CodeBase: 1 << 36, CodeSize: bench.EffectiveCodeFootprint()}
	core.Bind(gen, arch)
	core.Run(0, goldenCyclesBefore)
	squashed := core.Unbind()
	core.Bind(gen, arch)
	core.Run(goldenCyclesBefore, goldenCyclesAfter)
	h := sha256.New()
	fmt.Fprintf(h, "squashed=%d\nstats=%+v\n", squashed, core.Stats())
	fmt.Fprintf(h, "arch=%d %d %d inflight=%d %v\n", arch.NextSeq, arch.PC, arch.Committed, core.InFlight(), arch.CommittedByClass)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenLines computes one "core/bench digest" line per golden case.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, gc := range goldenCores() {
		for _, b := range workload.All() {
			core := NewCore(gc.cfg)
			if gc.units != nil {
				if err := core.Reconfigure(*gc.units); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, gc.name+"/"+b.Name+" "+goldenDigest(core, b))
		}
	}
	return out
}

// TestCoreGolden pins the detailed core's exact behaviour: every
// benchmark on both paper cores and one reconfigured unit set must
// reproduce the committed digests bit for bit. Any change to what the
// pipeline does on any cycle — an issue scan skipped while something
// could have issued, a ROB slot mis-indexed — moves a digest. Only an
// intended change to the core's behaviour may rewrite testdata, with
// the digests this test reports.
func TestCoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark on three cores")
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Errorf("%d golden cases, %s has %d", len(got), goldenPath, len(want))
	}
	for _, line := range got {
		name, digest, _ := strings.Cut(line, " ")
		if want[name] != digest {
			t.Errorf("%s: digest %s, want %s", name, digest, want[name])
		}
	}
}
