//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-count assertions are skipped under it (the instrumentation
// itself allocates).
const raceEnabled = true
