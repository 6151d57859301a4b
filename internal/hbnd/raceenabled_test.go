//go:build race

package hbnd

// The race detector's sync.Pool drops a random share of Puts, so the
// pooled scratch is rebuilt at random and allocation guards read noise.
func init() { raceEnabled = true }
