// Package prof is the continuous-profiling layer of the MARAS
// observability stack: a capture scheduler that periodically records
// CPU windows and heap/goroutine/mutex/block snapshots into a bounded
// on-disk artifact ring with a CRC-indexed manifest, anomaly-triggered
// captures fed by the audit event log, and in-process profile
// summaries built straight from runtime records (no protobuf parsing)
// behind /debug/profiles. The pprof labels the captures attribute
// cycles by (stage=, op=, route=) are applied where the work runs, by
// obs.Do and the HTTP middleware; ParseCPULabels reads them back.
// Standard library only (runtime/pprof, runtime, compress/gzip), like
// the rest of internal/obs.
package prof

import (
	"runtime"
	"time"
)

// Mutex and block profiling are off by default in the Go runtime, so
// /debug/pprof/mutex and /debug/pprof/block serve empty profiles
// unless a rate is set. The setters below remember what they set —
// runtime exposes no getter for the block rate — so /debug/profiles
// can report whether the profiles are live or dormant.
var (
	mutexFraction int
	blockRateNS   int64
)

// EnableMutexProfiling samples 1/fraction of mutex contention events
// (runtime.SetMutexProfileFraction). fraction <= 0 disables.
func EnableMutexProfiling(fraction int) {
	if fraction < 0 {
		fraction = 0
	}
	mutexFraction = fraction
	runtime.SetMutexProfileFraction(fraction)
}

// EnableBlockProfiling records blocking events (channel waits, mutex
// waits) lasting at least rate (runtime.SetBlockProfileRate). rate
// <= 0 disables.
func EnableBlockProfiling(rate time.Duration) {
	if rate < 0 {
		rate = 0
	}
	blockRateNS = rate.Nanoseconds()
	runtime.SetBlockProfileRate(int(blockRateNS))
}

// MutexProfileFraction reports the configured mutex sampling fraction
// (0 = disabled).
func MutexProfileFraction() int { return mutexFraction }

// BlockProfileRate reports the configured block profiling threshold
// (0 = disabled).
func BlockProfileRate() time.Duration { return time.Duration(blockRateNS) }
