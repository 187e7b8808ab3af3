//go:build race

package store

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// deliberately drops a quarter of its Puts, so allocation counts of code
// that draws its requests from a pool are not reproducible.
const raceEnabled = true
