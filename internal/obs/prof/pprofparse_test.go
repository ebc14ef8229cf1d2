package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"maras/internal/obs"
)

// Minimal pprof protobuf encoder for deterministic parser tests.

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendTag(b []byte, field, wire int) []byte {
	return appendVarint(b, uint64(field)<<3|uint64(wire))
}

func appendBytesField(b []byte, field int, data []byte) []byte {
	b = appendTag(b, field, wireBytes)
	b = appendVarint(b, uint64(len(data)))
	return append(b, data...)
}

func appendVarintField(b []byte, field int, v uint64) []byte {
	b = appendTag(b, field, wireVarint)
	return appendVarint(b, v)
}

// encLabel builds a Label message {key, str} of string-table indices.
func encLabel(key, str int) []byte {
	var b []byte
	b = appendVarintField(b, 1, uint64(key))
	b = appendVarintField(b, 2, uint64(str))
	return b
}

// encSample builds a Sample message with packed values and labels.
func encSample(values []int64, packed bool, labels ...[]byte) []byte {
	var b []byte
	if packed {
		var pv []byte
		for _, v := range values {
			pv = appendVarint(pv, uint64(v))
		}
		b = appendBytesField(b, 2, pv)
	} else {
		for _, v := range values {
			b = appendVarintField(b, 2, uint64(v))
		}
	}
	for _, l := range labels {
		b = appendBytesField(b, 3, l)
	}
	return b
}

// encProfile builds a Profile message from a string table and samples.
func encProfile(strs []string, samples ...[]byte) []byte {
	var b []byte
	for _, s := range samples {
		b = appendBytesField(b, 2, s)
	}
	for _, s := range strs {
		b = appendBytesField(b, 6, []byte(s))
	}
	return b
}

func TestParseCPULabelsSynthetic(t *testing.T) {
	// String table: 0="", 1="stage", 2="mine", 3="route", 4="/api".
	strs := []string{"", "stage", "mine", "route", "/api"}
	profile := encProfile(strs,
		encSample([]int64{8, 80_000_000}, false, encLabel(1, 2)), // stage=mine, weight 8
		encSample([]int64{2, 20_000_000}, true),                  // unlabeled, packed values
		encSample([]int64{5}, false, encLabel(3, 4)),             // route=/api
	)

	stats, err := ParseCPULabels(profile)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWeight != 15 {
		t.Fatalf("total weight = %d, want 15", stats.TotalWeight)
	}
	if stats.ByKey["stage"] != 8 || stats.ByKey["route"] != 5 {
		t.Fatalf("by key: %+v", stats.ByKey)
	}
	if got := stats.Fraction("stage"); math.Abs(got-8.0/15.0) > 1e-9 {
		t.Fatalf("stage fraction = %f", got)
	}
	if stats.ByKeyValue["stage"]["mine"] != 8 || stats.ByKeyValue["route"]["/api"] != 5 {
		t.Fatalf("by key/value: %+v", stats.ByKeyValue)
	}
}

func TestParseCPULabelsDedupPerSampleKey(t *testing.T) {
	strs := []string{"", "stage", "mine", "clean"}
	// One sample carrying two labels with the SAME key must count the
	// key's weight once, not twice.
	profile := encProfile(strs,
		encSample([]int64{4}, false, encLabel(1, 2), encLabel(1, 3)),
	)
	stats, err := ParseCPULabels(profile)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ByKey["stage"] != 4 {
		t.Fatalf("same-key labels double counted: %+v", stats.ByKey)
	}
}

func TestParseCPULabelsGzipped(t *testing.T) {
	strs := []string{"", "stage", "encode"}
	profile := encProfile(strs, encSample([]int64{3}, false, encLabel(1, 2)))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(profile)
	zw.Close()

	stats, err := ParseCPULabels(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWeight != 3 || stats.ByKey["stage"] != 3 {
		t.Fatalf("gzipped parse: %+v", stats)
	}
}

func TestParseCPULabelsTruncated(t *testing.T) {
	strs := []string{"", "stage", "mine"}
	profile := encProfile(strs, encSample([]int64{8}, false, encLabel(1, 2)))
	if _, err := ParseCPULabels(profile[:len(profile)-3]); err == nil {
		t.Fatal("truncated profile should error")
	}
}

// TestParseCPULabelsLiveProfile round-trips a real runtime profile:
// spin as an obs.Do unit under a stage label, record, and confirm the
// parser attributes the samples. Sampling is environment dependent, so an unlucky empty
// profile retries and finally skips rather than flaking.
func TestParseCPULabelsLiveProfile(t *testing.T) {
	for attempt := 0; attempt < 3; attempt++ {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("cpu profile unavailable: %v", err)
		}
		stop := time.Now().Add(250 * time.Millisecond)
		obs.Do(context.Background(), nil, "spin", func(context.Context, *obs.Stage) {
			x := 0.0
			for time.Now().Before(stop) {
				for i := 0; i < 10_000; i++ {
					x += math.Sqrt(float64(i))
				}
			}
			_ = x
		}, obs.LabelStage, "spin")
		pprof.StopCPUProfile()

		stats, err := ParseCPULabels(buf.Bytes())
		if err != nil {
			t.Fatalf("live profile failed to parse: %v", err)
		}
		if stats.TotalWeight == 0 {
			continue // no samples landed; retry
		}
		if stats.ByKey[obs.LabelStage] == 0 {
			t.Fatalf("no stage-labeled samples in live profile: %+v", stats.ByKey)
		}
		return
	}
	t.Skip("no CPU samples after 3 attempts; sampler starved in this environment")
}
