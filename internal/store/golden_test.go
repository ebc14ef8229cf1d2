package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"maras/internal/assoc"
	"maras/internal/core"
	"maras/internal/synth"
)

// goldenSHA256 is the SHA-256 of the format-v2 snapshot encoding of
// the fixed quarter mined in TestWholeAnalysisGolden. Optimizations of
// the pipeline (support counting, mining, cluster construction) must
// leave it unchanged: it covers every persisted field of every signal
// — rank, score, measures, SupportType, ReportIDs, SeriousShare, SOCs
// and the full MCAC with its levels — plus stats, dictionary, reports
// and quality metrics. Change it only with a deliberate change of the
// analysis's output.
//
// It last changed when support types came to follow Definition 3.3.2
// as "at least two reports" (package assoc): 719 of the 4,649 signals,
// all closed, moved from unsupported to implicit (14 / 3,916 / 719
// explicit / implicit / unsupported became 14 / 4,635 / 0); every
// other field is unchanged. It was
// abf7f476c996b6ef1379baf7feeeb5ae8716915120bfc883498aecbf81c26b66.
const goldenSHA256 = "3dabd55bc6e339f122f9e37f7aa8b303b45b71c2f545835a3f7a4d75513e7990"

// goldenV3SHA256 is the same quarter's hash in the current format,
// which adds the report index (strata, body offsets, PrimaryID order)
// to the v2 content. It changes with the analysis or with the format;
// before the support-type change above it was
// d46d9884ceb5a0a4c24f3696612244476c6f0aa6d9a7978cdeb9bebf189aa0a2.
const goldenV3SHA256 = "221ed06fe2c7825d49a72eeb076bd9df1b62518d99bdf3818ffe44864cd6e06b"

// TestWholeAnalysisGolden mines a fixed synthetic quarter through
// core.Run, keeping every ranked signal, and hashes its deterministic
// snapshot encodings (fixed save time) in format v2 and in the current
// format.
func TestWholeAnalysisGolden(t *testing.T) {
	cfg := synth.DefaultConfig("2014Q1", 11)
	cfg.Reports = 4_000
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 4
	opts.TopK = 0
	a, err := core.Run(q.Reports(), opts)
	if err != nil {
		t.Fatal(err)
	}

	// The fixture must exercise both types a closed target can have,
	// or the hash would not pin the support typing; by Lemma 3.4.2 no
	// signal is unsupported (TestSupportTypesRoundTrip pins that
	// type's encoding).
	seen := map[assoc.SupportType]int{}
	for i := range a.Signals {
		seen[a.Signals[i].SupportType]++
	}
	if seen[assoc.Explicit] == 0 || seen[assoc.Implicit] == 0 || seen[assoc.Unsupported] != 0 {
		t.Errorf("fixture types %v, want explicit and implicit signals and no unsupported one", seen)
	}

	for _, c := range []struct {
		version uint16
		want    string
	}{{2, goldenSHA256}, {Version, goldenV3SHA256}} {
		var buf bytes.Buffer
		if err := writeVersion(&buf, "2014Q1", a, time.Unix(42, 0), c.version); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("v%d snapshot hash = %s, want %s (%d signals, %d bytes)",
				c.version, got, c.want, len(a.Signals), buf.Len())
		}
	}
}
