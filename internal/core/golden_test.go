package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenDigests pins the sha256 of MarshalJSONStable (worker count
// normalized to 0) for fixed seeds at scale 0.08. They are the
// byte-identity guardrail for every refactor of the study engine: an
// engine change that alters any Results byte — a table row, a float
// digit, a map ordering — fails here. Regenerate only for an intended
// change of the study's output, and say so in the change log.
var goldenDigests = []struct {
	seed   int64
	digest string
}{
	{42, "7f66f8447d4b8e4bf00449f54e353930d4d25c780ad0387a0ed11e9e9c9c0f89"},
	{7, "ddb59938a5f37dbbc35db4b6708f62d35fa6d0d26eb82d16655969af508f58c2"},
}

// TestResultsGoldenDigests runs each pinned seed at several worker
// counts and requires the rendered Results to hash to the pinned
// digest — the serial path and every parallel width alike.
func TestResultsGoldenDigests(t *testing.T) {
	for _, g := range goldenDigests {
		for _, workers := range []int{1, 4, 16} {
			sum := sha256.Sum256(runScaledWithWorkers(t, g.seed, 0.08, workers))
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("seed %d workers %d: Results digest %s, want %s", g.seed, workers, got, g.digest)
			}
		}
	}
}
