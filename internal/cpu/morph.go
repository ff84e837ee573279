package cpu

import "fmt"

// Core morphing (§III; Rodrigues et al., PACT 2011 [5]) lets the two
// asymmetric cores exchange execution datapaths at run time: the INT
// core takes over the FP core's strong floating-point units and
// relinquishes its own weak FP datapath, becoming a core that is
// strong on all fronts, while the FP core is left weak on all fronts.
// The paper under reproduction deliberately avoids morphing hardware
// and studies swap-only scheduling; implementing morphing here enables
// the comparison the paper's §III implies.
//
// In this model only the execution units migrate: queues, register
// files and caches stay put (the morphing hardware of [5] rewires
// datapaths, not storage). A core must be drained (unbound) before
// reconfiguration, which the AMP system guarantees by squashing both
// pipelines first — the same protocol as a thread swap.

// MorphStrongUnits returns the unit set of the morphed strong core:
// the INT core's strong integer datapath plus the FP core's strong
// floating-point datapath.
func MorphStrongUnits() [NumUnitKinds]UnitSpec {
	intU := IntCoreConfig().Units
	fpU := FPCoreConfig().Units
	return [NumUnitKinds]UnitSpec{
		UIntALU:  intU[UIntALU],
		UIntMul:  intU[UIntMul],
		UIntDiv:  intU[UIntDiv],
		UFPALU:   fpU[UFPALU],
		UFPMul:   fpU[UFPMul],
		UFPDiv:   fpU[UFPDiv],
		UMemPort: intU[UMemPort],
	}
}

// MorphWeakUnits returns the unit set of the morphed weak core: the
// FP core's weak integer datapath plus the INT core's weak
// floating-point datapath.
func MorphWeakUnits() [NumUnitKinds]UnitSpec {
	intU := IntCoreConfig().Units
	fpU := FPCoreConfig().Units
	return [NumUnitKinds]UnitSpec{
		UIntALU:  fpU[UIntALU],
		UIntMul:  fpU[UIntMul],
		UIntDiv:  fpU[UIntDiv],
		UFPALU:   intU[UFPALU],
		UFPMul:   intU[UFPMul],
		UFPDiv:   intU[UFPDiv],
		UMemPort: fpU[UMemPort],
	}
}

// MorphedStrongConfig returns a full Config describing the INT core in
// its morphed (strong) state — used by the power model, which scales
// leakage and per-op energy with the installed units.
func MorphedStrongConfig() *Config {
	cfg := IntCoreConfig()
	cfg.Name = "INT+strongFP"
	cfg.Units = MorphStrongUnits()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

// MorphedWeakConfig returns a full Config describing the FP core in
// its morphed (weak) state.
func MorphedWeakConfig() *Config {
	cfg := FPCoreConfig()
	cfg.Name = "FP-weak"
	cfg.Units = MorphWeakUnits()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

// EffectiveUnits returns the unit set the core currently executes
// with (the config's units unless Reconfigure changed them).
func (c *Core) EffectiveUnits() [NumUnitKinds]UnitSpec { return c.units }

// Reconfigure installs a new execution-unit set. The core must be
// drained (no bound thread): the AMP system unbinds/squashes before
// morphing, exactly like a swap.
func (c *Core) Reconfigure(units [NumUnitKinds]UnitSpec) error {
	if c.arch != nil {
		return fmt.Errorf("cpu: %s: Reconfigure with a bound thread", c.cfg.Name)
	}
	for k := UnitKind(0); k < NumUnitKinds; k++ {
		if units[k].Count <= 0 || units[k].Latency <= 0 {
			return fmt.Errorf("cpu: %s: invalid unit %s in reconfiguration: %+v",
				c.cfg.Name, k, units[k])
		}
	}
	c.units = units
	c.issueWake = 0
	for k := UnitKind(0); k < NumUnitKinds; k++ {
		c.busyUntil[k] = make([]uint64, units[k].Count)
	}
	return nil
}
