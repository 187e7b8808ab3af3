//go:build race

package client

// raceEnabled reports whether the race detector is on. Allocation guards
// skip under it, as the server's do: they pin what the plain build
// allocates, not what the instrumented runtime does.
const raceEnabled = true
