package cpu

import (
	"fmt"

	"ampsched/internal/branch"
	"ampsched/internal/cache"
	"ampsched/internal/isa"
)

// InstrSource supplies the dynamic instruction stream of a thread.
type InstrSource interface {
	Next(*isa.Instruction)
}

// ThreadArch is the architectural state of a thread that survives
// migration between cores: the trace position (NextSeq), the synthetic
// program counter and code-footprint geometry for instruction-cache
// modeling, and the committed-instruction counters the schedulers
// observe. Microarchitectural state (caches, predictor tables,
// in-flight instructions) deliberately does NOT migrate — that is the
// cost of a swap.
type ThreadArch struct {
	NextSeq  uint64
	PC       uint64 // byte offset within the code footprint
	CodeBase uint64
	CodeSize uint64

	Committed        uint64 //ampvet:unit instructions
	CommittedByClass [isa.NumClasses]uint64

	// SyncClasses, when non-nil, materializes lazily maintained
	// per-class counters into CommittedByClass. Engines that attribute
	// classes in deferred batches (the interval engine) install it at
	// Bind and clear it at Unbind; readers outside the engine hot path
	// call Sync before touching CommittedByClass. The detailed core
	// maintains the counters eagerly and never sets it.
	SyncClasses func() `json:"-"`
}

// Equal reports whether two arch states hold identical architectural
// counters. The SyncClasses hook is runtime wiring, not architectural
// state, and is excluded (it also makes ThreadArch non-comparable).
func (t *ThreadArch) Equal(o *ThreadArch) bool {
	t.Sync()
	o.Sync()
	return t.NextSeq == o.NextSeq && t.PC == o.PC &&
		t.CodeBase == o.CodeBase && t.CodeSize == o.CodeSize &&
		t.Committed == o.Committed && t.CommittedByClass == o.CommittedByClass
}

// Sync brings CommittedByClass up to date for engines that attribute
// classes lazily; a no-op otherwise.
func (t *ThreadArch) Sync() {
	if t.SyncClasses != nil {
		t.SyncClasses()
	}
}

// IntPct returns the percentage of committed instructions that are
// integer-class.
func (t *ThreadArch) IntPct() float64 {
	if t.Committed == 0 {
		return 0
	}
	t.Sync()
	n := t.CommittedByClass[isa.IntALU] + t.CommittedByClass[isa.IntMul] + t.CommittedByClass[isa.IntDiv]
	return 100 * float64(n) / float64(t.Committed)
}

// FPPct returns the percentage of committed instructions that are
// floating-point-class.
func (t *ThreadArch) FPPct() float64 {
	if t.Committed == 0 {
		return 0
	}
	t.Sync()
	n := t.CommittedByClass[isa.FPALU] + t.CommittedByClass[isa.FPMul] + t.CommittedByClass[isa.FPDiv]
	return 100 * float64(n) / float64(t.Committed)
}

// entry states.
const (
	stEmpty uint8 = iota
	stDispatched
	stIssued // executing or complete; doneAt tells when the result is ready
)

const noSeq = ^uint64(0)

type robEntry struct {
	seq    uint64
	dep1   uint64 // absolute producer seq; noSeq = none
	dep2   uint64
	doneAt uint64
	addr   uint64
	class  isa.Class
	state  uint8
	misp   bool // mispredicted branch
}

// Core is one out-of-order core instance.
type Core struct {
	cfg  *Config
	hier *cache.Hierarchy
	bp   branch.Predictor
	act  Activity

	// units is the effective execution-unit set; it starts as
	// cfg.Units and changes only through Reconfigure (core morphing).
	units [NumUnitKinds]UnitSpec

	src  InstrSource
	arch *ThreadArch

	// Reorder buffer as a ring: seq lives in slot seq % ROBSize.
	// headSeq is the oldest live sequence number, tailSeq the next to
	// allocate; headIdx and tailIdx are their slots, advanced by a
	// compare-and-wrap so the per-cycle stages never divide.
	rob     []robEntry
	headSeq uint64
	tailSeq uint64 // == next seq to dispatch into the ROB
	headIdx int
	tailIdx int

	// issueWake is the earliest cycle an issue scan can issue anything.
	// A scan that issues nothing sets it from what blocked each entry;
	// issue returns at once before it. Dispatch, Bind, Unbind and
	// Reconfigure reset it to 0 (see DESIGN.md §8).
	issueWake uint64

	// Fetch buffer (fetched, not yet dispatched).
	fq     []fetchedOp
	fqHead int
	fqLen  int

	// Resource availability.
	intRegFree int
	fpRegFree  int
	intISQFree int
	fpISQFree  int
	ldFree     int
	stFree     int

	// Functional units: for non-pipelined instances, the cycle each
	// instance frees up; for pipelined kinds, acceptances this cycle.
	busyUntil [NumUnitKinds][]uint64
	accepted  [NumUnitKinds]int

	// Front-end control.
	fetchResumeAt uint64 // no fetch before this cycle
	mispPending   bool   // a mispredicted branch is unresolved

	// committed counts instructions this core committed across all
	// threads it has run (ThreadArch.Committed migrates with the
	// thread; this stays with the engine for per-engine telemetry).
	committed uint64

	// commitHook, when set, observes every committed instruction
	// (class and address) — the tap used by hardware monitors such as
	// the phase classifier.
	commitHook func(isa.Class, uint64)

	scratch isa.Instruction
}

// SetCommitHook installs (or clears, with nil) the commit observer.
func (c *Core) SetCommitHook(h func(class isa.Class, addr uint64)) { c.commitHook = h }

type fetchedOp struct {
	seq   uint64
	dep1  uint64
	dep2  uint64
	addr  uint64
	class isa.Class
	misp  bool
}

// NewCore builds a core from cfg. The configuration is validated and
// must not change afterwards.
func NewCore(cfg *Config) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:   cfg,
		hier:  cache.NewHierarchy(cfg.Caches),
		bp:    branch.NewGShare(cfg.BranchHistoryBits),
		rob:   make([]robEntry, cfg.ROBSize),
		fq:    make([]fetchedOp, 2*cfg.FetchWidth),
		units: cfg.Units,
	}
	for k := UnitKind(0); k < NumUnitKinds; k++ {
		c.busyUntil[k] = make([]uint64, c.units[k].Count)
	}
	c.resetResources()
	return c
}

func (c *Core) resetResources() {
	c.intRegFree = c.cfg.IntRegs
	c.fpRegFree = c.cfg.FPRegs
	c.intISQFree = c.cfg.IntISQ
	c.fpISQFree = c.cfg.FPISQ
	c.ldFree = c.cfg.LSQLoads
	c.stFree = c.cfg.LSQStores
}

// Config returns the core's configuration.
func (c *Core) Config() *Config { return c.cfg }

// Hierarchy exposes the cache hierarchy (for power accounting and
// tests).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Predictor exposes the branch predictor.
func (c *Core) Predictor() branch.Predictor { return c.bp }

// Activity returns the monotonic event ledger.
func (c *Core) Activity() Activity { return c.act }

// Bound reports whether a thread is currently bound.
func (c *Core) Bound() bool { return c.arch != nil }

// Arch returns the bound thread's architectural state (nil if none).
func (c *Core) Arch() *ThreadArch { return c.arch }

// InFlight returns the number of live ROB entries plus buffered
// fetched instructions.
func (c *Core) InFlight() int {
	return int(c.tailSeq-c.headSeq) + c.fqLen
}

// Bind attaches a thread to the core. The core must be empty (freshly
// created, or after Unbind).
func (c *Core) Bind(src InstrSource, arch *ThreadArch) {
	if c.arch != nil {
		panic(fmt.Sprintf("cpu: %s: Bind with thread already bound", c.cfg.Name))
	}
	if arch.CodeSize == 0 {
		panic("cpu: Bind with zero CodeSize")
	}
	c.src = src
	c.arch = arch
	c.headSeq = arch.NextSeq
	c.tailSeq = arch.NextSeq
	c.headIdx = int(arch.NextSeq % uint64(len(c.rob)))
	c.tailIdx = c.headIdx
	c.issueWake = 0
	c.fqHead = 0
	c.fqLen = 0
	c.fetchResumeAt = 0
	c.mispPending = false
}

// Unbind squashes all in-flight work and detaches the thread,
// returning the number of squashed (fetched or dispatched but not
// committed) instructions. Cache and predictor contents stay — the
// next thread inherits a polluted core and the departing thread will
// find cold structures wherever it lands.
func (c *Core) Unbind() uint64 {
	if c.arch == nil {
		return 0
	}
	squashed := uint64(c.InFlight())
	c.act.Squashed += squashed
	for i := range c.rob {
		c.rob[i].state = stEmpty
	}
	c.headSeq = 0
	c.tailSeq = 0
	c.headIdx = 0
	c.tailIdx = 0
	c.issueWake = 0
	c.fqLen = 0
	c.fqHead = 0
	c.resetResources()
	for k := range c.busyUntil {
		for i := range c.busyUntil[k] {
			c.busyUntil[k][i] = 0
		}
	}
	c.src = nil
	c.arch = nil
	c.mispPending = false
	c.fetchResumeAt = 0
	return squashed
}

// StallCycle charges one frozen cycle (swap overhead). Leakage still
// accrues; no pipeline activity happens.
//
//ampvet:hotpath
func (c *Core) StallCycle() { c.act.StallCycles++ }

// Step advances the core by one cycle at global time now. Stages run
// commit -> issue -> dispatch -> fetch so results propagate with
// correct one-cycle visibility.
//
//ampvet:hotpath
func (c *Core) Step(now uint64) {
	if c.arch == nil {
		return
	}
	c.act.Cycles++
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
}

// nextSlot returns the ROB slot after i.
//
//ampvet:hotpath
func (c *Core) nextSlot(i int) int {
	if i++; i == len(c.rob) {
		return 0
	}
	return i
}

//ampvet:hotpath
func (c *Core) commit(now uint64) {
	width := c.cfg.CommitWidth
	for n := 0; n < width && c.headSeq < c.tailSeq; n++ {
		e := &c.rob[c.headIdx]
		if e.state != stIssued || e.doneAt > now {
			return
		}
		switch {
		case e.class == isa.Store:
			c.hier.WriteData(e.addr)
			c.stFree++
		case e.class == isa.Load:
			c.ldFree++
			c.intRegFree++
		case e.class.IsFP():
			c.fpRegFree++
		case e.class == isa.Branch:
			// no destination register
		default:
			c.intRegFree++
		}
		c.act.ROBReads++
		c.committed++
		c.arch.Committed++
		c.arch.CommittedByClass[e.class]++
		if c.commitHook != nil {
			c.commitHook(e.class, e.addr)
		}
		e.state = stEmpty
		c.headSeq++
		c.headIdx = c.nextSlot(c.headIdx)
	}
}

// unitFor maps an instruction class to the unit kind it occupies.
func unitFor(class isa.Class) UnitKind {
	switch class {
	case isa.Load, isa.Store:
		return UMemPort
	case isa.Branch:
		return UIntALU
	default:
		return UnitKind(class)
	}
}

// claimUnit reserves a unit of kind k at time now and returns its
// operation latency, or -1 if no instance can accept this cycle.
func (c *Core) claimUnit(k UnitKind, now uint64) int {
	spec := &c.units[k]
	if spec.Pipelined {
		if c.accepted[k] >= spec.Count {
			return -1
		}
		c.accepted[k]++
		return spec.Latency
	}
	for i := range c.busyUntil[k] {
		if c.busyUntil[k][i] <= now {
			c.busyUntil[k][i] = now + uint64(spec.Latency)
			return spec.Latency
		}
	}
	return -1
}

// unitFreeAt returns the cycle the soonest-free instance of a
// non-pipelined unit kind k frees up. Pipelined kinds never set their
// timers, so they report 0: a rescan on the next cycle, when the
// per-cycle acceptances reset.
//
//ampvet:hotpath
func (c *Core) unitFreeAt(k UnitKind) uint64 {
	free := noSeq
	for _, t := range c.busyUntil[k] {
		free = min(free, t)
	}
	return free
}

// readyAt returns the cycle from which producer dep's result is
// available to the consumer seq in ROB slot slot: 0 for no producer
// or a committed one, doneAt for an issued one, and noSeq for one
// still waiting to issue (it cannot be ready before it issues, and its
// own entry bounds that). The producer's slot is found by stepping
// back from the consumer's, which is exact because both are live.
//
//ampvet:hotpath
func (c *Core) readyAt(dep, seq uint64, slot int) uint64 {
	if dep == noSeq || dep < c.headSeq {
		return 0
	}
	p := slot - int(seq-dep)
	if p < 0 {
		p += len(c.rob)
	}
	if e := &c.rob[p]; e.state == stIssued {
		return e.doneAt
	}
	return noSeq
}

//ampvet:hotpath
func (c *Core) issue(now uint64) {
	if now < c.issueWake {
		return
	}
	for k := range c.accepted {
		c.accepted[k] = 0
	}
	// wake is the earliest cycle any blocked entry could issue. It is
	// kept only when nothing issues: then the scan visited every entry,
	// and until that cycle only the resets listed on issueWake can
	// unblock one.
	wake := noSeq
	issued := 0
	slot := c.headIdx
	for seq := c.headSeq; seq < c.tailSeq && issued < c.cfg.IssueWidth; seq, slot = seq+1, c.nextSlot(slot) {
		e := &c.rob[slot]
		if e.state != stDispatched {
			continue
		}
		if r := c.readyAt(e.dep1, seq, slot); r > now {
			wake = min(wake, r)
			continue
		}
		if r := c.readyAt(e.dep2, seq, slot); r > now {
			wake = min(wake, r)
			continue
		}
		kind := unitFor(e.class)
		lat := c.claimUnit(kind, now)
		if lat < 0 {
			wake = min(wake, c.unitFreeAt(kind))
			continue
		}
		issued++
		c.act.UnitOps[kind]++

		// Operand reads and issue-queue wakeup/select energy.
		nreads := uint64(0)
		if e.dep1 != noSeq {
			nreads++
		}
		if e.dep2 != noSeq {
			nreads++
		}
		if e.class.IsFP() {
			c.act.FPISQIssues++
			c.act.FPRegReads += nreads
			c.fpISQFree++
		} else {
			c.act.IntISQIssues++
			c.act.IntRegReads += nreads
			c.intISQFree++
		}

		switch e.class {
		case isa.Load:
			c.act.LSQSearches++
			e.doneAt = now + uint64(lat) + uint64(c.hier.ReadData(e.addr))
			c.act.IntRegWrites++
		case isa.Store:
			c.act.LSQSearches++
			// Address generation only; the cache write happens at
			// commit out of the store buffer.
			e.doneAt = now + uint64(lat)
		case isa.Branch:
			e.doneAt = now + uint64(lat)
			if e.misp {
				// The front end restarts after resolution plus the
				// refill penalty.
				c.fetchResumeAt = e.doneAt + uint64(c.cfg.MispredictPenalty)
				c.mispPending = false
			}
		default:
			e.doneAt = now + uint64(lat)
			if e.class.IsFP() {
				c.act.FPRegWrites++
			} else {
				c.act.IntRegWrites++
			}
		}
		e.state = stIssued
	}
	if issued == 0 {
		c.issueWake = wake
	}
}

func (c *Core) dispatch(now uint64) {
	_ = now
	for n := 0; n < c.cfg.DispatchWidth && c.fqLen > 0; n++ {
		op := &c.fq[c.fqHead]
		if c.tailSeq-c.headSeq >= uint64(c.cfg.ROBSize) {
			return // ROB full
		}
		// Resource checks; in-order dispatch stalls on the first
		// instruction that cannot get all of its resources.
		switch {
		case op.class == isa.Load:
			if c.ldFree == 0 || c.intRegFree == 0 || c.intISQFree == 0 {
				return
			}
			c.ldFree--
			c.intRegFree--
			c.intISQFree--
			c.act.LSQWrites++
			c.act.IntISQWrites++
		case op.class == isa.Store:
			if c.stFree == 0 || c.intISQFree == 0 {
				return
			}
			c.stFree--
			c.intISQFree--
			c.act.LSQWrites++
			c.act.IntISQWrites++
		case op.class == isa.Branch:
			if c.intISQFree == 0 {
				return
			}
			c.intISQFree--
			c.act.IntISQWrites++
		case op.class.IsFP():
			if c.fpRegFree == 0 || c.fpISQFree == 0 {
				return
			}
			c.fpRegFree--
			c.fpISQFree--
			c.act.FPISQWrites++
		default: // IntALU, IntMul, IntDiv
			if c.intRegFree == 0 || c.intISQFree == 0 {
				return
			}
			c.intRegFree--
			c.intISQFree--
			c.act.IntISQWrites++
		}

		c.rob[c.tailIdx] = robEntry{
			seq:   op.seq,
			dep1:  op.dep1,
			dep2:  op.dep2,
			addr:  op.addr,
			class: op.class,
			state: stDispatched,
			misp:  op.misp,
		}
		c.tailSeq = op.seq + 1
		c.tailIdx = c.nextSlot(c.tailIdx)
		c.issueWake = 0
		c.act.Renames++
		c.act.ROBWrites++
		if c.fqHead++; c.fqHead == len(c.fq) {
			c.fqHead = 0
		}
		c.fqLen--
	}
}

// jumpTarget deterministically maps a branch site to its taken target
// offset within the thread's code footprint, 4-byte aligned.
func jumpTarget(site, codeSize uint64) uint64 {
	z := site
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return (z % codeSize) &^ 3
}

func (c *Core) fetch(now uint64) {
	if c.mispPending || now < c.fetchResumeAt {
		return
	}
	if len(c.fq)-c.fqLen < c.cfg.FetchWidth {
		return // no room for a full group
	}

	// One instruction-cache access per fetch group.
	pc := c.arch.CodeBase + c.arch.PC
	c.act.FetchGroups++
	lat := c.hier.FetchInstr(pc)
	if lat > c.cfg.Caches.L1I.HitLatency {
		// Miss: block the front end; the line is now resident so the
		// retried access hits.
		c.fetchResumeAt = now + uint64(lat)
		return
	}

	for i := 0; i < c.cfg.FetchWidth; i++ {
		in := &c.scratch
		c.src.Next(in)
		seq := c.arch.NextSeq
		c.arch.NextSeq++
		c.act.FetchedOps++

		op := fetchedOp{seq: seq, class: in.Class, addr: in.Addr, dep1: noSeq, dep2: noSeq}
		if in.Dep1 > 0 && uint64(in.Dep1) <= seq {
			op.dep1 = seq - uint64(in.Dep1)
		}
		if in.Dep2 > 0 && uint64(in.Dep2) <= seq {
			op.dep2 = seq - uint64(in.Dep2)
		}

		endGroup := false
		if in.Class == isa.Branch {
			c.act.BPredOps++
			pred := c.bp.Predict(in.Addr)
			c.bp.Update(in.Addr, in.Taken)
			op.misp = pred != in.Taken
			if in.Taken {
				c.arch.PC = jumpTarget(in.Addr, c.arch.CodeSize)
				endGroup = true // taken branches end the fetch group
			} else {
				c.advancePC()
			}
			if op.misp {
				c.mispPending = true
				endGroup = true
			}
		} else {
			c.advancePC()
		}

		tail := c.fqHead + c.fqLen
		if tail >= len(c.fq) {
			tail -= len(c.fq)
		}
		c.fq[tail] = op
		c.fqLen++
		if endGroup {
			break
		}
	}
}

func (c *Core) advancePC() {
	c.arch.PC += 4
	if c.arch.PC >= c.arch.CodeSize {
		c.arch.PC = 0
	}
}
