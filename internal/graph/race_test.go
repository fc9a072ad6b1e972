//go:build race

package graph_test

// Race instrumentation changes what the standard library allocates
// (bytes.Buffer.Grow allocates twice the size it is asked for), so byte
// budgets hold in normal builds only.
func init() { raceEnabled = true }
