package coconut

// Repair is one rebuild from the raw dataset for every index type: these
// tests pin what that buys beyond the corruption sweep — an index whose
// child manifest is unreadable repairs like any other damage, a repair
// leaves no file behind that the repaired index does not name, and a repair
// cut short at any write can be run again to completion.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
)

// repairIndex is what the repair tests ask of every public index type.
type repairIndex interface {
	sweepSearcher
	Count() int64
	Close() error
}

// repairKind builds, reopens and grows one index type, materialized
// (mat: its series stored in its leaf run) or not.
type repairKind struct {
	mat    bool
	build  func(Config) (repairIndex, error)
	open   func(Config) (repairIndex, error)
	insert func(repairIndex, []Series) error
}

var repairKinds = map[string]repairKind{
	"lsm": {
		build:  func(c Config) (repairIndex, error) { return BuildLSMIndex(c) },
		open:   func(c Config) (repairIndex, error) { return OpenLSMIndex(c) },
		insert: func(ix repairIndex, b []Series) error { return ix.(*LSMIndex).Insert(b) },
	},
	"tree": {
		build:  func(c Config) (repairIndex, error) { return BuildTreeIndex(c) },
		open:   func(c Config) (repairIndex, error) { return OpenTreeIndex(c) },
		insert: func(ix repairIndex, b []Series) error { return ix.(*TreeIndex).Insert(b) },
	},
	"tree-full": {
		mat:    true,
		build:  func(c Config) (repairIndex, error) { return BuildTreeIndex(c) },
		open:   func(c Config) (repairIndex, error) { return OpenTreeIndex(c) },
		insert: func(ix repairIndex, b []Series) error { return ix.(*TreeIndex).Insert(b) },
	},
}

// repairFixture builds kind over the sweep dataset as cfg says, grows it by
// grow series, and closes it cleanly.
// It returns the baseline answers and record count the repaired index must
// reproduce.
func repairFixture(t *testing.T, kind repairKind, cfg Config, qs []Series, grow int) ([]Result, int64) {
	t.Helper()
	cfg.Materialized = kind.mat
	ix, err := kind.build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateQueries(Astronomy, grow, sweepLen, sweepSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	if err := kind.insert(ix, extra); err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	count := ix.Count()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return base, count
}

// requireRepaired reopens the repaired index and checks it against the
// pre-rot baseline: the same record count and byte-identical answers.
func requireRepaired(t *testing.T, kind repairKind, fs Storage, qs []Series, base []Result, count int64) {
	t.Helper()
	re, err := kind.open(Config{Storage: fs, Name: "sw"})
	if err != nil {
		t.Fatalf("open after repair: %v", err)
	}
	defer re.Close()
	if got := re.Count(); got != count {
		t.Fatalf("repaired index holds %d records, want %d", got, count)
	}
	assertExactAnswers(t, re, qs, base)
}

// TestRepairRebuildsUnreadableChildManifest rots the manifest of one child
// of a 3-partition index. No open can read that child, so nothing but a
// rebuild from the raw dataset can repair it: Scrub names the manifest, and
// Repair must come back clean with the baseline answers and count.
func TestRepairRebuildsUnreadableChildManifest(t *testing.T) {
	for kname, kind := range repairKinds {
		t.Run(kname, func(t *testing.T) {
			ffs, qs := sweepSetup(t, storage.NewMemFS())
			base, count := repairFixture(t, kind, sweepConfig(ffs, 3), qs, 30)
			const mf = "sw.p001.manifest"
			data, err := storage.ReadFileAll(ffs, mf)
			if err != nil {
				t.Fatal(err)
			}
			if err := ffs.Rot(mf, int64(len(data)/2), 4); err != nil {
				t.Fatal(err)
			}
			if re, err := kind.open(Config{Storage: ffs, Name: "sw"}); err == nil {
				re.Close()
				t.Fatal("open over an unreadable child manifest succeeded")
			} else {
				requireCorrupt(t, err)
			}
			requireScrubFlags(t, ffs, "sw", mf)
			requireRepairClean(t, ffs, "sw")
			requireRepaired(t, kind, ffs, qs, base, count)
		})
	}
}

// TestRepairLeavesNoOrphans rots one run of an LSM that holds several —
// flushed, compacted and bulk-loaded — and requires that after Repair every
// run file on the device is one the post-repair Scrub names, and that no
// sort temporary, nor a per-partition .scatter file of the build the
// partition layer once made, is left.
func TestRepairLeavesNoOrphans(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			inner := storage.NewMemFS()
			ffs, qs := sweepSetup(t, inner)
			cfg := sweepConfig(ffs, parts)
			cfg.MemoryBudget = 4 << 10
			ix, err := BuildLSMIndex(cfg)
			if err != nil {
				t.Fatal(err)
			}
			extra, err := GenerateQueries(Astronomy, 60, sweepLen, sweepSeed+3)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < len(extra); b += 10 {
				if err := ix.Insert(extra[b : b+10]); err != nil {
					t.Fatal(err)
				}
				if err := ix.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if runs := ix.NumRuns(); runs < 3*parts {
				t.Fatalf("workload left %d runs, want several per partition", runs)
			}
			base := sweepBaseline(t, ix, qs)
			count := ix.Count()
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			run := findLargest(t, inner, ".run.")
			if err := ffs.Rot(run, 16+8+4, 8); err != nil {
				t.Fatal(err)
			}
			requireScrubFlags(t, ffs, "sw", run)
			rep, err := Repair(Config{Storage: ffs, Name: "sw"})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("still corrupt after repair: %+v", rep.Corrupt())
			}
			named := map[string]bool{}
			for _, f := range rep.Findings {
				named[f.File] = true
			}
			for _, n := range inner.Names() {
				if strings.Contains(n, ".run.") && !named[n] {
					t.Errorf("run file %q survived the repair unreferenced", n)
				}
				if strings.Contains(n, ".sort") || strings.Contains(n, ".scatter") {
					t.Errorf("temporary %q survived the repair", n)
				}
			}
			requireRepaired(t, repairKinds["lsm"], ffs, qs, base, count)
		})
	}
}

// TestRepairRestartable cuts one Repair short at each of its counted device
// operations in turn: by a power loss, or (fail rows) by a one-shot I/O
// error after which the device keeps working, so the failed build's own
// cleanup runs. The raw dataset is never written in place, so whatever the
// cut left — the old index, the rebuilt one, or a mix of their files — a
// second Repair on the recovered image must come back clean with the
// baseline answers and count. Growing the 3-partition LSM by
// 300 series moves the boundaries a fresh build would sample: a rebuild that
// did not keep the stored ones would leave, cut between two child commits,
// children that split the records two ways, which Scrub cannot see.
func TestRepairRestartable(t *testing.T) {
	cases := []struct {
		kind        string
		parts, grow int
		rot         string
		off         int64
		fail        bool
	}{
		// Inside the front-coded keys of the run's first block.
		{"lsm", 1, 30, ".run.", 16 + 8 + 4, false},
		{"lsm", 1, 30, ".run.", 16 + 8 + 4, true},
		{"lsm", 3, 30, ".run.", 16 + 8 + 4, false},
		{"lsm", 3, 300, ".run.", 16 + 8 + 4, false},
		{"tree", 1, 30, ".leaves", storage.ChecksumHeaderSize + 4, false},
		{"tree", 1, 30, ".leaves", storage.ChecksumHeaderSize + 4, true},
		{"tree-full", 1, 30, ".leaves", storage.ChecksumHeaderSize + 4, false},
		{"tree-full", 1, 30, ".leaves", storage.ChecksumHeaderSize + 4, true},
	}
	for _, tc := range cases {
		cutBy := "power-loss"
		if tc.fail {
			cutBy = "io-error"
		}
		t.Run(fmt.Sprintf("%s/parts=%d/grow=%d/%s", tc.kind, tc.parts, tc.grow, cutBy), func(t *testing.T) {
			kind := repairKinds[tc.kind]
			inner := storage.NewMemFS()
			ffs, qs := sweepSetup(t, inner)
			base, count := repairFixture(t, kind, sweepConfig(ffs, tc.parts), qs, tc.grow)
			if want := int64(sweepN + tc.grow); count != want {
				t.Fatalf("fixture holds %d records, want %d", count, want)
			}
			if err := ffs.Rot(findLargest(t, inner, tc.rot), tc.off, 8); err != nil {
				t.Fatal(err)
			}
			probe := storage.NewFaultFS(ffs.Recover(0))
			if _, err := Repair(Config{Storage: probe, Name: "sw"}); err != nil {
				t.Fatal(err)
			}
			ops := probe.OpCount()
			t.Logf("cutting Repair at each of its %d counted operations", ops)
			for k := int64(1); k <= ops; k++ {
				cut := storage.NewFaultFS(ffs.Recover(0))
				var img Storage = cut
				if tc.fail {
					// A failed best-effort removal does not fail the Repair,
					// so only the second Repair's outcome is checked.
					cut.FailAt(k)
					_, _ = Repair(Config{Storage: cut, Name: "sw"})
				} else {
					cut.PowerLossAt(k)
					if _, err := Repair(Config{Storage: cut, Name: "sw"}); err == nil {
						t.Fatalf("op %d of %d: Repair succeeded through a power loss", k, ops)
					}
					img = cut.Recover(0)
				}
				requireRepairClean(t, img, "sw")
				requireRepaired(t, kind, img, qs, base, count)
			}
		})
	}
}

// TestRepairRefusesMismatchedDataFile: Repair rebuilds the index its
// manifest describes. A Config naming another dataset file fails with
// ErrConfigMismatch before anything is written, as Open does; a rebuild
// over the copy would otherwise make the sweep remove the real dataset.
func TestRepairRefusesMismatchedDataFile(t *testing.T) {
	inner := storage.NewMemFS()
	ffs, qs := sweepSetup(t, inner)
	kind := repairKinds["lsm"]
	base, count := repairFixture(t, kind, sweepConfig(ffs, 1), qs, 30)
	data, err := storage.ReadFileAll(ffs, "data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteFileAtomic(ffs, "copy.bin", data); err != nil {
		t.Fatal(err)
	}
	run := findLargest(t, inner, ".run.")
	if err := ffs.Rot(run, 16+8+4, 8); err != nil {
		t.Fatal(err)
	}
	_, err = Repair(Config{Storage: ffs, Name: "sw", DataFile: "copy.bin"})
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("Repair over another dataset file: %v, want ErrConfigMismatch", err)
	}
	requireScrubFlags(t, ffs, "sw", run)
	requireRepairClean(t, ffs, "sw")
	requireRepaired(t, kind, ffs, qs, base, count)
}

// TestRepairIndexesRecordsPastCommittedEnd pins what a rebuild takes from
// the raw file: every complete record, those past the sidecar's committed
// end included. Opens ignore such a tail — its records were never
// acknowledged, like an insert whose commit failed — but Repair re-sums the
// raw file and rewrites the sidecar, as a fresh Build does, so for the LSM
// as for the tree, materialized or not, the repaired index holds them.
func TestRepairIndexesRecordsPastCommittedEnd(t *testing.T) {
	rots := map[string]struct {
		file string
		off  int64
	}{
		"lsm":       {".run.", 16 + 8 + 4},
		"tree":      {".leaves", storage.ChecksumHeaderSize + 4},
		"tree-full": {".leaves", storage.ChecksumHeaderSize + 4},
	}
	for kname, kind := range repairKinds {
		t.Run(kname, func(t *testing.T) {
			inner := storage.NewMemFS()
			ffs, qs := sweepSetup(t, inner)
			_, count := repairFixture(t, kind, sweepConfig(ffs, 1), qs, 30)
			tail, err := GenerateQueries(Astronomy, 5, sweepLen, sweepSeed+4)
			if err != nil {
				t.Fatal(err)
			}
			var enc []byte
			for _, s := range tail {
				enc = series.AppendEncode(enc, s)
			}
			f, err := ffs.Open("data.bin")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(enc, count*int64(series.EncodedSize(sweepLen))); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			re, err := kind.open(Config{Storage: ffs, Name: "sw"})
			if err != nil {
				t.Fatal(err)
			}
			if got := re.Count(); got != count {
				t.Fatalf("open counts %d records, want %d: the tail past the committed end is not the dataset's", got, count)
			}
			re.Close()
			rot := rots[kname]
			victim := findLargest(t, inner, rot.file)
			if err := ffs.Rot(victim, rot.off, 8); err != nil {
				t.Fatal(err)
			}
			requireScrubFlags(t, ffs, "sw", victim)
			requireRepairClean(t, ffs, "sw")
			re, err = kind.open(Config{Storage: ffs, Name: "sw"})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got, want := re.Count(), count+int64(len(tail)); got != want {
				t.Fatalf("repaired index holds %d records, want %d", got, want)
			}
			for i, s := range tail {
				res, err := re.Search(s)
				if err != nil {
					t.Fatal(err)
				}
				if res.Position != count+int64(i) || res.Distance != 0 {
					t.Fatalf("tail record %d: got position %d at distance %g, want position %d at 0",
						i, res.Position, res.Distance, count+int64(i))
				}
			}
		})
	}
}
