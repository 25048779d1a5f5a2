package packing

// ExactCap and ExactEnough expose Exact's search cap and stop rule to
// the replay tests.
var (
	ExactCap    = exactCap
	ExactEnough = exactEnough
)
