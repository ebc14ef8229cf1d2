//go:build !race

package glyph

const raceEnabled = false
