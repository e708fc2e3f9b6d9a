package params

import "fmt"

// Typed validation errors for the execution-mode and coarsening knobs.
// Each wraps ErrInvalid, like the sentinels in params.go.
var (
	// ErrBadMode rejects unknown execution-mode names.
	ErrBadMode = fmt.Errorf("%w: unknown execution mode", ErrInvalid)
	// ErrBadCoarsen rejects coarsening knobs outside their domain: a
	// negative level count, or a coarsening ratio outside (0, 1].
	ErrBadCoarsen = fmt.Errorf("%w: coarsening knobs out of range", ErrInvalid)
)

// Mode selects the execution path of a sparsification run. It lives here
// (not in the facade) so the HTTP service's wire layer — which cannot
// import the root package — shares the exact parse/validate semantics the
// facade re-exports.
type Mode int

const (
	// ModeAuto picks the path from the graph: single-shot for small
	// inputs, sharded beyond the auto-shard threshold, multilevel for
	// very large or ill-partitioned inputs.
	ModeAuto Mode = iota
	// ModeSingleShot pins the plain single-process edge-filter pipeline.
	ModeSingleShot
	// ModeSharded pins the shard-parallel engine.
	ModeSharded
	// ModeMultilevel pins the coarsen → sparsify-coarse → interpolate →
	// refilter hierarchy engine.
	ModeMultilevel
)

// String returns the canonical wire/flag name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSingleShot:
		return "single"
	case ModeSharded:
		return "sharded"
	case ModeMultilevel:
		return "multilevel"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode resolves an execution-mode name for flags and wire formats.
// The empty string means ModeAuto.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "auto":
		return ModeAuto, nil
	case "single", "singleshot", "single-shot":
		return ModeSingleShot, nil
	case "sharded":
		return ModeSharded, nil
	case "multilevel":
		return ModeMultilevel, nil
	}
	return ModeAuto, fmt.Errorf("%w: %q (want auto, single, sharded or multilevel)", ErrBadMode, name)
}

// Coarsen validates the multilevel hierarchy knobs. Zero values mean
// "use the default" and always pass: levels must be non-negative, and a
// non-zero ratio must lie in (0, 1] (1 disables coarsening).
func Coarsen(levels int, ratio float64) error {
	if levels < 0 {
		return fmt.Errorf("%w: levels must be non-negative, got %d", ErrBadCoarsen, levels)
	}
	if ratio != 0 && !(ratio > 0 && ratio <= 1) {
		return fmt.Errorf("%w: ratio must be in (0, 1], got %v", ErrBadCoarsen, ratio)
	}
	return nil
}

// Plan is the one compatibility table of the knobs that pin an execution
// plan — mode × shards × edge budget × coarsening — shared by the facade's
// New and the service's wire canonicalization. ModeAuto leaves the path to
// the caller's per-graph policy, so only explicit pins are judged against
// each other; zero shards, maxEdges and coarsen knobs mean "unset".
func Plan(mode Mode, shards, maxEdges, coarsenLevels int, coarsenRatio float64) error {
	if err := Coarsen(coarsenLevels, coarsenRatio); err != nil {
		return err
	}
	if maxEdges > 0 && (shards > 1 || mode == ModeSharded) {
		// The sharded plan applies the edge budget per shard, which would
		// silently inflate the cap shards-fold.
		return fmt.Errorf("%w: the edge budget is a single-shot knob; it does not compose with a sharded run", ErrBadCombination)
	}
	switch mode {
	case ModeSingleShot:
		if shards > 1 {
			return fmt.Errorf("%w: mode single contradicts shards=%d", ErrBadCombination, shards)
		}
	case ModeSharded:
		if shards == 1 {
			return fmt.Errorf("%w: mode sharded contradicts shards=1", ErrBadCombination)
		}
	case ModeMultilevel:
		if shards != 0 {
			return fmt.Errorf("%w: mode multilevel does not compose with shards=%d", ErrBadCombination, shards)
		}
		if maxEdges > 0 {
			// The hierarchy's re-filter passes admit whatever the
			// certificate needs, so an edge budget cannot be honored.
			return fmt.Errorf("%w: the edge budget does not compose with mode multilevel", ErrBadCombination)
		}
	}
	if (mode == ModeSingleShot || mode == ModeSharded) && (coarsenLevels != 0 || coarsenRatio != 0) {
		return fmt.Errorf("%w: coarsen knobs require the multilevel mode", ErrBadCombination)
	}
	return nil
}
