//go:build race

package glyph

// raceEnabled: the race detector adds allocations of its own, so the
// allocation bounds are not checked under it.
const raceEnabled = true
