package amp

import "context"

// Stepper is the resumable core of RunContext: it advances a system
// toward an instruction limit one batch of stride-windows at a time,
// carrying the watchdog, cycle-budget and cancellation bookkeeping
// across calls. Batch passes keep steppers in pooled per-run scratch
// and drive each to completion on whichever goroutine claims it;
// RunContext is a single stepper driven to completion.
//
// The loop advances in engine-stride windows: n == 1 for detailed
// cores reproduces the original cycle-interleaved loop exactly (same
// Step/StallCycle sequence, same check points), while analytic engines
// amortize scheduler polling and bookkeeping over their stride.
// Running one core's window before the other's is equivalent to
// interleaving because the cores share no state — their only coupling
// is the scheduler, which acts at window boundaries.
type Stepper struct {
	s     *System
	ctx   context.Context
	done  <-chan struct{}
	limit uint64

	startCycle        uint64 //ampvet:unit cycles
	lastProgressCycle uint64 //ampvet:unit cycles
	lastCommitted     uint64 //ampvet:unit instructions

	finished bool
	res      Result
	err      error
}

// NewStepper starts a resumable run toward limit, emitting the
// run-start event immediately (exactly as RunContext does). Drive it
// with Step until it reports completion, then read Result.
func (s *System) NewStepper(ctx context.Context, limit uint64) *Stepper {
	st := &Stepper{}
	st.init(s, ctx, limit)
	return st
}

// Reset re-arms the stepper against s's current state, exactly as
// NewStepper would a fresh one: batch drivers keep stepper values in
// pooled per-run scratch instead of allocating one per run.
func (st *Stepper) Reset(s *System, ctx context.Context, limit uint64) {
	st.init(s, ctx, limit)
}

// init arms the stepper against s's current state. Split from
// NewStepper so RunContext can keep its stepper on the stack.
func (st *Stepper) init(s *System, ctx context.Context, limit uint64) {
	st.s = s
	st.ctx = ctx
	st.done = ctx.Done()
	st.limit = limit
	st.startCycle = s.cycle
	st.lastProgressCycle = s.cycle
	st.lastCommitted = s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
	st.finished = false
	st.res = Result{}
	st.err = nil
	s.emit(Event{Kind: EventRunStart, Cycle: s.cycle})
}

// Done reports whether the run has completed.
func (st *Stepper) Done() bool { return st.finished }

// System returns the system this stepper drives.
func (st *Stepper) System() *System { return st.s }

// Result returns the run outcome; valid once Step has returned true.
// The error carries the same contract as RunContext: ctx.Err() for a
// cancellation, a *WedgedError for a watchdog or budget abort, nil for
// a completed run.
func (st *Stepper) Result() (Result, error) { return st.res, st.err }

// finish records the terminal outcome and emits the run-end event
// (after the result snapshot, preserving RunContext's event order).
func (st *Stepper) finish(res Result, err error) bool {
	st.res, st.err = res, err
	st.finished = true
	st.s.emit(Event{Kind: EventRunEnd, Cycle: st.s.cycle})
	return true
}

// Step advances the system by at most windows stride-windows and
// reports whether the run completed (limit reached, context canceled,
// or wedged). Calling Step after completion is a no-op returning true.
//
//ampvet:hotpath
func (st *Stepper) Step(windows int) bool {
	if st.finished {
		return true
	}
	// Hoist the per-window bookkeeping into locals so the loop keeps
	// them in registers; the mutable ones are written back on the
	// not-done return path (terminal paths capture them in finish).
	s := st.s
	limit := st.limit
	done := st.done
	startCycle := st.startCycle
	lastProgressCycle := st.lastProgressCycle
	lastCommitted := st.lastCommitted
	for i := 0; i < windows; i++ {
		if s.threads[0].Arch.Committed >= limit || s.threads[1].Arch.Committed >= limit {
			return st.finish(s.result(), nil)
		}
		n := s.stride
		if s.cycle < s.stallUntil {
			if remain := s.stallUntil - s.cycle; remain < n {
				n = remain
			}
			s.engines[0].StallCycles(n)
			s.engines[1].StallCycles(n)
		} else {
			s.engines[0].Run(s.cycle, n)
			s.engines[1].Run(s.cycle, n)
			if s.sched != nil {
				if mv := s.sched.Tick(s); len(mv) != 0 && s.movesSwap(mv) {
					s.requestSwap()
				} else if mp, ok := s.sched.(MorphPolicy); ok {
					switch act, strong := mp.MorphTick(s); {
					case act == MorphOn && !s.morphed:
						s.morph(true, strong)
					case act == MorphOff && s.morphed:
						s.morph(false, -1)
					}
				}
			}
		}
		s.cycle += n
		if s.timeline != nil && s.cycle >= s.timeline.next {
			s.recordTimeline()
		}

		if done != nil && s.cycle&ctxCheckMask < n {
			select {
			case <-done:
				s.emit(Event{Kind: EventCanceled, Cycle: s.cycle})
				return st.finish(s.result(), st.ctx.Err())
			default:
			}
		}
		if s.cfg.CycleBudget > 0 && s.cycle-startCycle >= s.cfg.CycleBudget {
			werr := &WedgedError{
				Cycle: s.cycle, Window: s.cfg.CycleBudget,
				Reason: "cycle budget exhausted", Detail: s.stateDump(),
			}
			s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
			return st.finish(s.result(), werr)
		}
		if s.cycle-lastProgressCycle >= s.cfg.WatchdogCycles {
			total := s.threads[0].Arch.Committed + s.threads[1].Arch.Committed
			if total == lastCommitted {
				werr := &WedgedError{
					Cycle: s.cycle, Window: s.cfg.WatchdogCycles,
					Reason: "no commit progress", Detail: s.stateDump(),
				}
				s.emit(Event{Kind: EventWedged, Cycle: s.cycle, Reason: werr.Reason})
				return st.finish(s.result(), werr)
			}
			lastCommitted = total
			lastProgressCycle = s.cycle
			s.emit(Event{Kind: EventWatchdogReset, Cycle: s.cycle})
		}
	}
	st.lastProgressCycle = lastProgressCycle
	st.lastCommitted = lastCommitted
	return false
}
