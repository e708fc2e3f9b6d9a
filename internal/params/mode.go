package params

import "fmt"

// ErrBadMode rejects unknown execution-mode names. It wraps ErrInvalid,
// like the sentinels in params.go.
var ErrBadMode = fmt.Errorf("%w: unknown execution mode", ErrInvalid)

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
