package core

import (
	"bytes"
	"testing"
)

// runScaledWithWorkers runs the 13-campaign study at small scale with a
// given worker-pool size and returns the stable JSON rendering minus
// the worker count itself (the one config field allowed to differ).
func runScaledWithWorkers(t *testing.T, seed int64, scale float64, workers int) []byte {
	t.Helper()
	cfg, err := ScaledConfig(seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	res.Config.Workers = 0 // normalize: only the pool size differs by design
	data, err := res.MarshalJSONStable()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunDeterministicAcrossWorkerCounts is the parallel engine's core
// guarantee: the serial path (Workers=1) and parallel paths of any
// width produce byte-identical Results for the same seed, because every
// campaign and every account draws from its own RNG stream split from
// the root seed.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := runScaledWithWorkers(t, 42, 0.08, 1)
	if len(serial) == 0 {
		t.Fatal("empty results JSON")
	}
	for _, workers := range []int{4, 16} {
		par := runScaledWithWorkers(t, 42, 0.08, workers)
		if !bytes.Equal(serial, par) {
			t.Fatalf("results with Workers=%d differ from serial run (serial %d bytes, parallel %d bytes)",
				workers, len(serial), len(par))
		}
	}
}

// TestRunDeterministicAcrossRepeats guards the weaker (but older)
// property too: same seed, same worker count, same bytes.
func TestRunDeterministicAcrossRepeats(t *testing.T) {
	a := runScaledWithWorkers(t, 7, 0.08, 0)
	b := runScaledWithWorkers(t, 7, 0.08, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("two runs with identical config differ")
	}
}

// TestRunSeedSensitivity: different seeds must not collapse onto the
// same output (a degenerate way to pass the determinism tests).
func TestRunSeedSensitivity(t *testing.T) {
	a := runScaledWithWorkers(t, 1, 0.08, 0)
	b := runScaledWithWorkers(t, 2, 0.08, 0)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestJournalStatsExported: the run's journal accounting lands in
// Results and the stable JSON, with per-campaign cursors matching the
// monitors' consumption.
func TestJournalStatsExported(t *testing.T) {
	cfg, err := ScaledConfig(11, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Journal.TotalEvents != s.Store().Journal().Len() {
		t.Fatalf("TotalEvents = %d, journal holds %d", res.Journal.TotalEvents, s.Store().Journal().Len())
	}
	if res.Journal.TotalEvents <= res.HistoryLikes {
		t.Fatalf("TotalEvents %d should exceed history likes %d (campaign likes missing?)",
			res.Journal.TotalEvents, res.HistoryLikes)
	}
	if len(res.Journal.Campaigns) != len(res.Campaigns) {
		t.Fatalf("journal stats cover %d campaigns, want %d", len(res.Journal.Campaigns), len(res.Campaigns))
	}
	likes := 0
	for _, c := range res.Campaigns {
		js := res.Journal.Campaigns[c.Spec.ID]
		if c.Active && js.Cursor != c.Likes {
			t.Fatalf("campaign %s cursor %d != observed likes %d", c.Spec.ID, js.Cursor, c.Likes)
		}
		if js.Events < js.Cursor {
			t.Fatalf("campaign %s events %d < cursor %d", c.Spec.ID, js.Events, js.Cursor)
		}
		likes += js.Events
	}
	if likes == 0 {
		t.Fatal("no campaign journal events recorded")
	}
	data, err := res.MarshalJSONStable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"Journal"`)) || !bytes.Contains(data, []byte(`"TotalEvents"`)) {
		t.Fatal("stable JSON missing journal stats")
	}
}
