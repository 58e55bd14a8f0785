// Package progress defines the progress-reporting callback shared by the
// long-running phases of an allocation: RR-sketch construction (imm,
// prima) and Monte-Carlo welfare estimation (uic). It sits below all of
// them so the sketch builders, the estimators, core's planners, the root
// welfare package, and the welmaxd job stream can exchange events without
// import cycles.
package progress

// Stage identifies which phase of a run an event reports on.
type Stage string

const (
	// StageSketch covers RR-set sampling: the adaptive θ-estimation
	// rounds (those that grow the phase-1 stream) and the final
	// collection.
	StageSketch Stage = "sketch"
	// StageEstimate covers Monte-Carlo welfare estimation runs.
	StageEstimate Stage = "estimate"
	// StageSelect covers the final greedy seed selection; its events
	// carry the incremental seed prefix chosen so far.
	StageSelect Stage = "select"
)

// Event is one progress report. For StageSketch, Round counts growth
// phases within one sketch build (the adaptive rounds, then the final
// collection) and Done/Total are RR-set counts against the current
// round's target — Total may change between rounds as the adaptive
// search tightens θ. For StageEstimate, Done/Total are Monte-Carlo runs
// finished versus requested. For StageSelect, Done/Total are seeds
// selected versus the selection budget and SeedPrefix is the ordering
// so far.
type Event struct {
	Stage Stage
	Round int
	Done  int
	Total int
	// SeedPrefix, on StageSelect events, is the ordered seed prefix the
	// greedy selection has committed to so far (node ids as int64, the
	// wire form). Each event carries a fresh slice safe to retain.
	SeedPrefix []int64
}

// Func receives events. Implementations must be fast (they run on the
// hot sampling path) and, when the run uses parallel estimation workers,
// safe for concurrent calls.
type Func func(Event)
