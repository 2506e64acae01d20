package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
)

// studyScale is the study workload's stated scale: small enough that a
// run holds well over a hundred seed → Results repetitions, so the
// 90th percentile is well sampled.
const studyScale = 0.05

// heapEvery is how often, in studies, the study workload marks the heap.
const heapEvery = 10

// studySeeds are the study seeds a run draws from; studyDigests pins
// the sha256 of each seed's MarshalJSONStable Results, taken from the
// tree the benchmark was introduced on. A change that alters Results
// bytes fails the study check.
var studySeeds = []int64{101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116}

var studyDigests = map[int64]string{
	101: "8b80285ea4563aaf13ac5bc0209430c3e3b131cf246aeecc37df4e111a5dd52c",
	102: "25c8bc9f9f9be90a91142a9557cf2207f03fce6ab3afd30c8de581563d894e5f",
	103: "0350502f345dd19376c1c354d38d7e274aa2e19b0627efa9e4908041563889d2",
	104: "9be6def4af625e3da10216697deb87d7e82b12fd4d39f664cc118242e7058361",
	105: "b0edbbcf041888b1b80193c6201b6341c6279fff95074eb5eda7aae8631d843d",
	106: "5262444b689195f7d390bf8dc251bf2cf215c9aa0677604b12d422043afa857d",
	107: "9255a836953291e82bb70e25356d493ec3037a7debb04124deddf99bbd2a2711",
	108: "7123ff48500da921476068c3a0f1f82c4becb41729159bd9cdb1cfd643256534",
	109: "a9ba992300e43122ffb1ee62335281a08ad2c4999cb1f2d18e8eb9f315cd3bce",
	110: "5609eabc9033c9bd797e331349ebc9d83b22c148dacf7cea5b707a79714efdcb",
	111: "5cd37c5e93217e9c2e6a8562b22923dbe3e5bc5d70870bbd8750ca43caeed29a",
	112: "4ee22fff69926d536999e8e53451e9c762159b56364069c50614bfac399b1b46",
	113: "8ff3a20e022cb829ffde431b3b59108953d397114234640b248c0c846dc08629",
	114: "905258b4e3211bcbea416efa0fce0e906932a152f91607ac53d9a0297dc3b15c",
	115: "f8c9a79dc2dff713c8b9abe5508a9c90f9415b9b7282cfd9282bc2b242c6de19",
	116: "23d0e51a4edf49a229ae400a2fd9ef18214010402d60efc8bd30cf73a88ad6bb",
}

func runStudy(b *bench) (*result, error) {
	r := &result{}
	pick := rand.New(rand.NewSource(b.seed))
	var setup, runs []float64
	var runTotal time.Duration
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < time.Duration(b.seconds)*time.Second {
		if b.ctx.Err() != nil {
			return nil, b.ctx.Err()
		}
		seed := studySeeds[pick.Intn(len(studySeeds))]
		// Every heapEvery-th study marks the heap while its world is
		// still held.
		var mark func()
		if len(runs)%heapEvery == 0 {
			mark = b.markHeap
		}
		got, d, setupD, err := runOneStudy(b.tr, seed, mark)
		if err != nil {
			r.check(false, fmt.Sprintf("study seed %d: %v", seed, err))
			continue
		}
		r.check(got == studyDigests[seed], fmt.Sprintf("study seed %d: Results digest %s, pinned %s", seed, got, studyDigests[seed]))
		setup = append(setup, setupD.Seconds())
		runs = append(runs, ms(d))
		runTotal += d
	}
	b.logf("%d studies at scale %g: study %s ms; NewStudy %s s", len(runs), studyScale, Summarize(runs), Summarize(setup))
	r.gated(median(setup), runs, float64(len(runs))/runTotal.Seconds())
	r.value("study_s", median(runs)/1e3, "s")
	r.value("error_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	if b.tr != nil {
		var world, fin []float64
		for _, s := range b.tr.Spans(Window{}) {
			switch s.Name {
			case "core.run_world":
				world = append(world, float64(s.Dur())/1e6)
			case "core.finalize":
				fin = append(fin, float64(s.Dur())/1e6)
			}
		}
		r.layer("core.run_world_ms", median(world))
		r.layer("core.finalize_ms", median(fin))
	}
	return r, nil
}

// runOneStudy builds and runs one study and digests its Results. It
// returns the digest, the seed → Results time and the NewStudy time.
func runOneStudy(tr *Tracer, seed int64, mark func()) (string, time.Duration, time.Duration, error) {
	cfg, err := core.ScaledConfig(seed, studyScale)
	if err != nil {
		return "", 0, 0, err
	}
	t0 := time.Now()
	sp := tr.Begin("core.new_study", 0, 0)
	st, err := core.NewStudy(cfg)
	sp.End(0)
	if err != nil {
		return "", 0, 0, err
	}
	setup := time.Since(t0)
	t1 := time.Now()
	// Study.Run is RunWorld then Finalize; calling them apart lets the
	// traced run time each.
	var res *core.Results
	sp = tr.Begin("core.run_world", 0, 0)
	err = st.RunWorld()
	sp.End(0)
	if err == nil {
		sp = tr.Begin("core.finalize", 0, 0)
		res, err = st.Finalize()
		sp.End(0)
	}
	d := time.Since(t1)
	if err != nil {
		return "", 0, 0, err
	}
	if mark != nil {
		mark()
		runtime.KeepAlive(st)
	}
	data, err := res.MarshalJSONStable()
	if err != nil {
		return "", 0, 0, err
	}
	return digest(data), d, setup, nil
}

// pinStudy prints the Results digests of the pinned seeds as Go source.
func pinStudy(stdout, stderr io.Writer) int {
	for _, seed := range studySeeds {
		got, _, _, err := runOneStudy(nil, seed, nil)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: study seed %d: %v\n", seed, err)
			return 1
		}
		fmt.Fprintf(stdout, "\t%d: %q,\n", seed, got)
	}
	return 0
}
