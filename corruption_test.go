package coconut

// The end-to-end corruption sweep: every class of persistent artifact —
// LSM run file, tree leaf run, raw dataset, and the
// un-flushed LSM tail in the raw file or in its sidecar — is bit-rotted in
// turn, on both storage backends and for both single and partitioned
// indexes, and the public API must (1) never return a silently wrong
// answer, (2) surface typed ErrCorruptData from opens and reads, (3) have
// Scrub name the rotted file, and (4) restore byte-identical answers after
// Repair rebuilds the index (the raw dataset, being source data, is the one
// unrepairable class and must say so).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/series"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

const (
	sweepLen  = 64
	sweepN    = 400
	sweepQ    = 8
	sweepSeed = 77
)

// sweepFS is the backend contract: any FS that can also enumerate its
// files, so the sweep can locate the artifact to rot.
type sweepFS interface {
	storage.FS
	Names() []string
}

func sweepBackends(t *testing.T) map[string]func(t *testing.T) sweepFS {
	return map[string]func(t *testing.T) sweepFS{
		"memfs": func(t *testing.T) sweepFS { return storage.NewMemFS() },
		"osfs": func(t *testing.T) sweepFS {
			fs, err := storage.NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
	}
}

func sweepSetup(t *testing.T, inner sweepFS) (*storage.FaultFS, []Series) {
	t.Helper()
	ffs := storage.NewFaultFS(inner)
	if err := GenerateDataset(ffs, "data.bin", RandomWalk, sweepN, sweepLen, sweepSeed); err != nil {
		t.Fatal(err)
	}
	qs, err := GenerateQueries(RandomWalk, sweepQ, sweepLen, sweepSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	return ffs, qs
}

func sweepConfig(fs Storage, parts int) Config {
	return Config{
		Storage:      fs,
		Name:         "sw",
		DataFile:     "data.bin",
		SeriesLen:    sweepLen,
		Segments:     8,
		Partitions:   parts,
		Workers:      2,
		QueryWorkers: 2,
	}
}

type sweepSearcher interface {
	Search(Series) (Result, error)
}

func sweepBaseline(t *testing.T, ix sweepSearcher, qs []Series) []Result {
	t.Helper()
	base := make([]Result, len(qs))
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		base[i] = res
	}
	return base
}

// requireCorrupt asserts a failure over corruption is typed, never a panic or
// an untyped error string.
func requireCorrupt(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("corruption went undetected: no error")
	}
	if !errors.Is(err, ErrCorruptData) && !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corruption error is untyped: %v", err)
	}
}

// assertNoWrongAnswer: with corruption present, each query must either
// fail typed or return exactly the pre-rot answer — a differing answer
// with a nil error is the one forbidden outcome.
func assertNoWrongAnswer(t *testing.T, ix sweepSearcher, qs []Series, base []Result) {
	t.Helper()
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			requireCorrupt(t, err)
			continue
		}
		if res.Position != base[i].Position || math.Abs(res.Distance-base[i].Distance) > 1e-9 {
			t.Fatalf("silently wrong answer for query %d: got (pos %d, dist %v), want (pos %d, dist %v)",
				i, res.Position, res.Distance, base[i].Position, base[i].Distance)
		}
	}
}

// assertExactAnswers: after repair, answers must be byte-identical to the
// pre-rot baseline.
func assertExactAnswers(t *testing.T, ix sweepSearcher, qs []Series, base []Result) {
	t.Helper()
	for i, q := range qs {
		res, err := ix.Search(q)
		if err != nil {
			t.Fatalf("post-repair query %d: %v", i, err)
		}
		if res.Position != base[i].Position || math.Abs(res.Distance-base[i].Distance) > 1e-9 {
			t.Fatalf("post-repair answer for query %d differs: got (pos %d, dist %v), want (pos %d, dist %v)",
				i, res.Position, res.Distance, base[i].Position, base[i].Distance)
		}
	}
}

// findLargest returns the largest file whose name contains substr (the
// largest is the one guaranteed to hold data, e.g. the bulk-loaded run).
func findLargest(t *testing.T, fs sweepFS, substr string) string {
	t.Helper()
	var best string
	var bestSize int64 = -1
	for _, n := range fs.Names() {
		if !strings.Contains(n, substr) {
			continue
		}
		f, err := fs.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if size > bestSize {
			best, bestSize = n, size
		}
	}
	if best == "" {
		t.Fatalf("no file matching %q in %v", substr, fs.Names())
	}
	return best
}

// requireScrubFlags runs Scrub and asserts it reports exactly the rotted
// file as corrupt (detection must be precise, not just "something broke").
func requireScrubFlags(t *testing.T, fs Storage, name, file string) {
	t.Helper()
	rep, err := Scrub(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatalf("scrub missed the corruption in %q", file)
	}
	for _, f := range rep.Corrupt() {
		if f.File != file {
			t.Fatalf("scrub flags %q (%v), but only %q was rotted", f.File, f.Err, file)
		}
		requireCorrupt(t, f.Err)
	}
}

func requireRepairClean(t *testing.T, fs Storage, name string) {
	t.Helper()
	rep, err := Repair(Config{Storage: fs, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		for _, f := range rep.Corrupt() {
			t.Errorf("still corrupt after repair: %s: %v", f.File, f.Err)
		}
		t.FailNow()
	}
}

// TestRawTruncationRefused: a raw file that lost its last record after the
// index was closed is damage, not a crash state — the raw bytes are fsynced
// before the sidecar that describes them — so the open fails typed, the
// sidecar is not trimmed to match (which would let the next insert reuse
// the lost position under an old run entry), and Scrub names the raw file.
func TestRawTruncationRefused(t *testing.T) {
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			ffs, _ := sweepSetup(t, storage.NewMemFS())
			ix, err := BuildLSMIndex(sweepConfig(ffs, parts))
			if err != nil {
				t.Fatal(err)
			}
			extra, err := GenerateQueries(Astronomy, 30, sweepLen, sweepSeed+3)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.Insert(extra); err != nil {
				t.Fatal(err)
			}
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			sidecar := storage.RecordSumsName("data.bin")
			before, err := storage.ReadFileAll(ffs, sidecar)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := storage.ReadFileAll(ffs, "data.bin")
			if err != nil {
				t.Fatal(err)
			}
			if err := storage.WriteFileAll(ffs, "data.bin", raw[:len(raw)-8*sweepLen]); err != nil {
				t.Fatal(err)
			}
			if re, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw"}); !errors.Is(err, ErrCorruptData) {
				if err == nil {
					re.Close()
				}
				t.Fatalf("open over a truncated raw file: %v, want ErrCorruptData", err)
			}
			after, err := storage.ReadFileAll(ffs, sidecar)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatalf("refused open rewrote the sidecar: %d bytes, was %d", len(after), len(before))
			}
			requireScrubFlags(t, ffs, "sw", "data.bin")
		})
	}
}

// TestMissingSidecarRefused: every build writes the raw file's CRC sidecar,
// so an index whose sidecar is gone lost a file. Opens of every variant fail
// typed without recreating it from the unverified
// raw bytes, and Scrub names the raw file.
func TestMissingSidecarRefused(t *testing.T) {
	type closer interface{ Close() error }
	tree := func(c Config) (closer, error) { return BuildTreeIndex(c) }
	openTree := func(c Config) (closer, error) { return OpenTreeIndex(c) }
	variants := map[string]struct {
		mat   bool
		build func(Config) (closer, error)
		open  func(Config) (closer, error)
	}{
		"tree": {false, tree, openTree},
		// Its queries read no raw byte, but its inserts append to the raw
		// log the sidecar checks.
		"tree-full": {true, tree, openTree},
		"lsm":       {false, func(c Config) (closer, error) { return BuildLSMIndex(c) }, func(c Config) (closer, error) { return OpenLSMIndex(c) }},
	}
	for vname, v := range variants {
		for _, parts := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/parts=%d", vname, parts), func(t *testing.T) {
				ffs, _ := sweepSetup(t, storage.NewMemFS())
				cfg := sweepConfig(ffs, parts)
				cfg.Materialized = v.mat
				ix, err := v.build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
				sidecar := storage.RecordSumsName("data.bin")
				if err := ffs.Remove(sidecar); err != nil {
					t.Fatal(err)
				}
				if re, err := v.open(Config{Storage: ffs, Name: "sw"}); !errors.Is(err, ErrCorruptData) {
					if err == nil {
						re.Close()
					}
					t.Fatalf("open without the raw sidecar: %v, want ErrCorruptData", err)
				}
				if ffs.Exists(sidecar) {
					t.Fatal("refused open recreated the sidecar")
				}
				requireScrubFlags(t, ffs, "sw", "data.bin")
			})
		}
	}
}

// TestTreeManifestEveryBitCovered pins that the tree's manifest, which
// names its leaf run's generation, leaves no bit unchecked: each bit of the
// manifest of a tree grown by inserts is flipped in turn, and every flip
// must fail OpenTreeIndex typed — ErrVersionMismatch for the 32 bits of the
// version word, ErrCorruptManifest for every other — never a panic, while
// Scrub names the manifest (and refuses the other versions).
func TestTreeManifestEveryBitCovered(t *testing.T) {
	const n, length = 3000, 64
	fs := storage.NewMemFS()
	if err := GenerateDataset(fs, "data.bin", RandomWalk, n, length, sweepSeed); err != nil {
		t.Fatal(err)
	}
	ix, err := BuildTreeIndex(Config{Storage: fs, Name: "ix", DataFile: "data.bin", SeriesLen: length, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateQueries(Astronomy, 300, length, sweepSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	const mf = "ix.manifest"
	orig, err := storage.ReadFileAll(fs, mf)
	if err != nil {
		t.Fatal(err)
	}
	open := Config{Storage: fs, Name: "ix"}
	rotted := make([]byte, len(orig))
	for bit := 0; bit < 8*len(orig); bit++ {
		copy(rotted, orig)
		rotted[bit/8] ^= 1 << (bit % 8)
		if err := storage.WriteFileAll(fs, mf, rotted); err != nil {
			t.Fatal(err)
		}
		want := ErrCorruptManifest
		if bit/32 == 1 { // the version word, bytes 4–7
			want = ErrVersionMismatch
		}
		if re, err := OpenTreeIndex(open); !errors.Is(err, want) {
			if err == nil {
				re.Close()
			}
			t.Fatalf("bit %d of %d flipped: open: %v, want %v", bit, 8*len(orig), err, want)
		}
		switch {
		case bit%8 != 0: // a Scrub verifies the whole index: once per byte
		case want == ErrVersionMismatch:
			if _, err := Scrub(fs, "ix"); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("bit %d flipped: scrub: %v, want ErrVersionMismatch", bit, err)
			}
		default:
			requireScrubFlags(t, fs, "ix", mf)
		}
	}
	if err := storage.WriteFileAll(fs, mf, orig); err != nil {
		t.Fatal(err)
	}
	re, err := OpenTreeIndex(open)
	if err != nil {
		t.Fatalf("restored manifest: open: %v", err)
	}
	if re.Count() != n+int64(len(extra)) {
		t.Fatalf("restored manifest: Count = %d, want %d", re.Count(), n+len(extra))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionSweep(t *testing.T) {
	for beName, mkFS := range sweepBackends(t) {
		for _, parts := range []int{1, 3} {
			prefix := fmt.Sprintf("%s/parts=%d/", beName, parts)
			t.Run(prefix+"tree-leaf", func(t *testing.T) { sweepLeafRun(t, mkFS(t), parts, false) })
			t.Run(prefix+"full-leaf", func(t *testing.T) { sweepLeafRun(t, mkFS(t), parts, true) })
			t.Run(prefix+"full-leaf-query", func(t *testing.T) { sweepFullLeafQuery(t, mkFS(t), parts) })
			t.Run(prefix+"lsm-run", func(t *testing.T) { sweepLSMRun(t, mkFS(t), parts) })
			t.Run(prefix+"raw", func(t *testing.T) { sweepRaw(t, mkFS(t), parts) })
			t.Run(prefix+"tail-raw", func(t *testing.T) { sweepTail(t, mkFS(t), parts, false) })
			t.Run(prefix+"tail-crc", func(t *testing.T) { sweepTail(t, mkFS(t), parts, true) })
		}
	}
}

// sweepLeafRun rots the first block of the largest leaf run of a tree,
// materialized or not. The run is read whole at open, so opens fail typed.
func sweepLeafRun(t *testing.T, inner sweepFS, parts int, materialized bool) {
	ffs, qs := sweepSetup(t, inner)
	cfg := sweepConfig(ffs, parts)
	cfg.Materialized = materialized
	ix, err := BuildTreeIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	leaves := findLargest(t, inner, ".leaves")
	if err := ffs.Rot(leaves, storage.ChecksumHeaderSize+4, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("open of a rotted leaf run succeeded")
	} else {
		requireCorrupt(t, err)
	}
	requireScrubFlags(t, ffs, "sw", leaves)
	requireRepairClean(t, ffs, "sw")

	re, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertExactAnswers(t, re, qs, base)
}

// sweepFullLeafQuery rots, under an open materialized tree, the series of
// the record its exact search answers the first query with and of the one
// its approximate search does: both searches read their candidates from the
// leaf run, so both fail typed with ErrCorruptData, and no other query
// answers wrong.
func sweepFullLeafQuery(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	cfg := sweepConfig(ffs, parts)
	cfg.Materialized = true
	ix, err := BuildTreeIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	base := sweepBaseline(t, ix, qs)
	approx, err := ix.SearchApprox(qs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	rotted := map[int64]bool{}
	for _, pos := range []int64{base[0].Position, approx.Position} {
		if rotted[pos] {
			continue
		}
		rotted[pos] = true
		name, off := findLeafSeries(t, inner, pos)
		if err := ffs.Rot(name, off, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Search(qs[0]); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("exact search over a rotted leaf record: %v, want ErrCorruptData", err)
	}
	if _, err := ix.SearchApprox(qs[0], 0); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("approximate search over a rotted leaf record: %v, want ErrCorruptData", err)
	}
	assertNoWrongAnswer(t, ix, qs[1:], base[1:])
}

// findLeafSeries returns the leaf run holding the record of raw position
// pos and the physical offset of the first byte of its series.
func findLeafSeries(t *testing.T, fs sweepFS, pos int64) (string, int64) {
	t.Helper()
	recSize := int64(summary.RecordSize + sweepLen*8)
	for _, name := range fs.Names() {
		if !strings.HasSuffix(name, ".leaves") {
			continue
		}
		inner, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := storage.OpenChecksumFile(inner)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		run := make([]byte, size)
		if _, err := f.ReadAt(run, 0); err != nil {
			t.Fatal(err)
		}
		block := int64(f.BlockSize())
		f.Close()
		for off := int64(0); off < size; off += recSize {
			if summary.DecodeRecord(run[off:]).Pos == pos {
				at := off + summary.RecordSize
				return name, storage.ChecksumHeaderSize + at/block*(4+block) + 4 + at%block
			}
		}
	}
	t.Fatalf("no leaf run holds position %d", pos)
	return "", 0
}

// TestScrubChecksLeafRunLength: a leaf run cut at a checksum-frame
// boundary — its tail frame cut off, or a frame dropped from its middle —
// keeps every remaining block intact, so only its length against the
// manifest's count tells it. Scrub runs the loader Open runs, so it names
// the run, and Repair rebuilds an index that opens and answers as before,
// for a tree, materialized or not, of 1 and 2 partitions.
func TestScrubChecksLeafRunLength(t *testing.T) {
	qs, err := GenerateQueries(RandomWalk, 4, confLen, confSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	// A frame is a CRC and a block of whole records: 170 of (key, position),
	// or of (key, position, series) as many as fit the materialized block.
	full := 24 + series.EncodedSize(confLen)
	strides := map[bool]int{false: 4 + 170*24, true: 4 + (4096/full)*full}
	for _, variant := range []struct {
		name string
		mat  bool
	}{{"tree", false}, {"tree-full", true}} {
		stride := strides[variant.mat]
		for _, parts := range []int{1, 2} {
			for _, damage := range []string{"cut-tail-frame", "drop-middle-frame"} {
				t.Run(fmt.Sprintf("%s/parts=%d/%s", variant.name, parts, damage), func(t *testing.T) {
					fs, _ := confFS(t)
					cfg := confConfig(fs, 1, variant.mat)
					cfg.Partitions = parts
					ix, err := BuildTreeIndex(cfg)
					if err != nil {
						t.Fatal(err)
					}
					base := sweepBaseline(t, ix, qs)
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
					leaves := findLargest(t, fs.(*storage.MemFS), ".leaves")
					data, err := storage.ReadFileAll(fs, leaves)
					if err != nil {
						t.Fatal(err)
					}
					if block := int(binary.LittleEndian.Uint32(data[8:12])); 4+block != stride {
						t.Fatalf("%s has %d-byte blocks, want frames of %d bytes", leaves, block, stride)
					}
					frame := func(i int) int { return storage.ChecksumHeaderSize + i*stride }
					frames := (len(data) - frame(0) + stride - 1) / stride
					if frames < 3 {
						t.Fatalf("%s holds %d frames, want at least 3", leaves, frames)
					}
					if damage == "cut-tail-frame" {
						data = data[:frame(frames-1)]
					} else {
						data = append(data[:frame(1):frame(1)], data[frame(2):]...)
					}
					if err := storage.WriteFileAll(fs, leaves, data); err != nil {
						t.Fatal(err)
					}
					if _, err := OpenTreeIndex(Config{Storage: fs, Name: "conf"}); !errors.Is(err, ErrCorruptData) {
						t.Fatalf("open: %v, want ErrCorruptData", err)
					}
					requireScrubFlags(t, fs, "conf", leaves)
					requireRepairClean(t, fs, "conf")
					re, err := OpenTreeIndex(Config{Storage: fs, Name: "conf"})
					if err != nil {
						t.Fatal(err)
					}
					defer re.Close()
					assertExactAnswers(t, re, qs, base)
				})
			}
		}
	}
}

// sweepLSMRun rots a sorted-run key block, which only the run codec's own
// block CRC guards. The run's keys are reloaded at open, so opens fail
// typed, and Repair rebuilds the index from the raw dataset.
func sweepLSMRun(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildLSMIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	// A second, smaller run beside the bulk run the rot hits.
	extra, err := GenerateQueries(Astronomy, 30, sweepLen, sweepSeed+3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	run := findLargest(t, inner, ".run.")
	// Past the run's 16-byte header and block 0's 8-byte head (payload
	// length, CRC): inside the front-coded keys of block 0.
	if err := ffs.Rot(run, 16+8+4, 8); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("open of a rotted run succeeded")
	} else {
		requireCorrupt(t, err)
	}
	requireScrubFlags(t, ffs, "sw", run)
	requireRepairClean(t, ffs, "sw")

	re, err := OpenLSMIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The rebuild must restore the exact record multiset: a partition child
	// building from the shared raw dataset must not index records its
	// siblings own.
	if got := re.Count(); got != sweepN+30 {
		t.Fatalf("repaired index holds %d records, want %d", got, sweepN+30)
	}
	assertExactAnswers(t, re, qs, base)
}

// sweepRaw rots the tail record of the raw dataset. The dataset is source
// data: reads that touch the record fail typed, scrub pinpoints the file,
// and Repair must refuse — nothing can re-derive it.
func sweepRaw(t *testing.T, inner sweepFS, parts int) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildTreeIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	recSize := int64(sweepLen * 8)
	if err := ffs.Rot("data.bin", int64(sweepN)*recSize-recSize+3, 4); err != nil {
		t.Fatal(err)
	}

	re, err := OpenTreeIndex(Config{Storage: ffs, Name: "sw"})
	if err != nil {
		requireCorrupt(t, err)
	} else {
		assertNoWrongAnswer(t, re, qs, base)
		re.Close()
	}
	requireScrubFlags(t, ffs, "sw", "data.bin")
	if _, err := Repair(Config{Storage: ffs, Name: "sw"}); err == nil {
		t.Fatal("repair claimed to fix rotted source data")
	} else if !errors.Is(err, ErrCorruptData) {
		t.Fatalf("repair refusal is untyped: %v", err)
	}
}

// sweepTail crashes an LSM with acknowledged inserts no run holds yet — the
// un-flushed tail an open re-derives from the raw log — and rots one of
// those records: its raw bytes or, separately, its sidecar entry. The raw
// file is source data with no other copy of the record, so opens fail typed
// (or answer exactly), Scrub names the raw file, and Repair refuses.
func sweepTail(t *testing.T, inner sweepFS, parts int, sidecar bool) {
	ffs, qs := sweepSetup(t, inner)
	ix, err := BuildLSMIndex(sweepConfig(ffs, parts))
	if err != nil {
		t.Fatal(err)
	}
	extra, err := GenerateQueries(Astronomy, 10, sweepLen, sweepSeed+2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(extra); err != nil {
		t.Fatal(err)
	}
	base := sweepBaseline(t, ix, qs)
	ffs.Crash()
	ix.Close() // fails after the crash; the durable image is what counts
	// Recover always images into memory, regardless of backend.
	img := ffs.Recover(0)
	victim := int64(sweepN + 4)
	file, off := "data.bin", victim*sweepLen*8+3
	if sidecar {
		file, off = storage.RecordSumsName("data.bin"), storage.RecordSumsHeaderSize+4*victim+1
	}
	if err := storage.NewFaultFS(img).Rot(file, off, 2); err != nil {
		t.Fatal(err)
	}

	if re, err := OpenLSMIndex(Config{Storage: img, Name: "sw"}); err != nil {
		requireCorrupt(t, err)
	} else {
		assertNoWrongAnswer(t, re, qs, base)
		re.Close()
	}
	requireScrubFlags(t, img, "sw", "data.bin")
	if _, err := Repair(Config{Storage: img, Name: "sw"}); err == nil {
		t.Fatal("repair claimed to fix a rotted un-flushed record")
	} else if !errors.Is(err, ErrCorruptData) {
		t.Fatalf("repair refusal is untyped: %v", err)
	}
}

// TestRunFileEveryByteCovered pins that the run codec alone leaves no byte
// of an LSM run file unchecked: in a bulk-loaded run of three blocks, each
// byte is flipped in turn, and at every offset the open fails typed and
// Scrub names the run and nothing else.
func TestRunFileEveryByteCovered(t *testing.T) {
	const n, length = 2*runblock.DefaultBlockRecords + 1, 8 // three run blocks, the last of one record
	ffs := storage.NewFaultFS(storage.NewMemFS())
	if err := GenerateDataset(ffs, "data.bin", RandomWalk, n, length, 5); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Storage: ffs, Name: "ev", DataFile: "data.bin", SeriesLen: length, Segments: 8, Workers: 2}
	ix, err := BuildLSMIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	const run = "ev.run.000000"
	rep, err := Scrub(ffs, "ev")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Findings, ScrubFinding{File: run, Units: 3}) {
		t.Fatalf("scrub of the clean index: %+v, want %s healthy with 3 blocks", rep.Findings, run)
	}
	data, err := storage.ReadFileAll(ffs, run)
	if err != nil {
		t.Fatal(err)
	}
	open := Config{Storage: ffs, Name: "ev"}
	for off := int64(0); off < int64(len(data)); off++ {
		if err := ffs.Rot(run, off, 1); err != nil {
			t.Fatal(err)
		}
		if ix, err := OpenLSMIndex(open); !errors.Is(err, ErrCorruptData) {
			if err == nil {
				ix.Close()
			}
			t.Fatalf("byte %d of %d flipped: open: %v, want ErrCorruptData", off, len(data), err)
		}
		requireScrubFlags(t, ffs, "ev", run)
		if err := ffs.Rot(run, off, 1); err != nil { // XOR again: the byte is restored
			t.Fatal(err)
		}
	}
	ix, err = OpenLSMIndex(open)
	if err != nil {
		t.Fatalf("restored run: open: %v", err)
	}
	if ix.Count() != n {
		t.Fatalf("restored run: Count = %d, want %d", ix.Count(), n)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
