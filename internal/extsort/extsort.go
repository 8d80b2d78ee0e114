// Package extsort is the bulk load's sort: external sorting of
// summary.Record values — an invSAX key and a raw-file position, 24 bytes —
// under an explicit memory budget (§3.1 of the paper, "Bottom-up
// Bulk-Loading Using External Sorting"). The partitioning phase reads the
// input in memory-sized chunks, sorts each chunk, and spills it as a sorted
// run; the merging phase merges the runs with summary.Merge, the merge every
// other sorted write shares too. An input that fits one chunk skips both: it
// is sorted in memory and merged from there.
//
// Records are sorted as values under the record order
// (summary.CompareRecords), total because positions are unique: every chunk
// by an in-place MSD radix sort on the key's bytes (American flag sort,
// sortRecords), which leaves small buckets and equal keys to slices.SortFunc
// and needs no second chunk-sized buffer, so the budget holds. A
// materialized index gathers its raw series only as it writes its leaves. A
// spilled run is a runblock run, the format of an LSM run: front-coded,
// every block CRC-checked, its order checked as it is written. It is written
// without an fsync, because it never outlives the build, and read back the
// way a compaction reads its inputs (runblock.Records), so rot of a spill
// fails the build instead of reaching the index.
//
// The sort's product is a stream (Sorted): the final merge — of the runs
// left after the intermediate generations, or of the sorted slices of the
// one chunk — runs as its consumer reads, so the sorted records are written
// once, by whoever consumes them, in the layout of their own file: the leaf
// run of a tree, the block-compressed run of an LSM.
//
// Both phases are parallel, and both fan out on internal/shard: Workers
// goroutines, each owning one chunk buffer, take turns reading the next
// chunk and then sort and spill it while the next one reads, and the
// independent merges of each intermediate generation of a multi-pass sort
// run concurrently. The one chunk of an input that fits is sorted on every
// worker too, as Workers contiguous slices sorted concurrently in place. The
// memory budget M is partitioned across the workers (a chunk and a spill
// writer each during run formation; during merging, a decoded block and a
// read batch per open run, and an output writer and a compressed block per
// merge), so the paper's memory model stays honest at any worker count.
// The order is total, so the sorted stream is the same for any worker count:
// a pure function of the input multiset, independent of chunk boundaries and
// merge grouping.
//
// Every byte moved goes through the storage VFS, so the paper's O(N/B)
// sequential-I/O claim is directly observable in the I/O statistics. The
// package sorts a record stream and nothing else.
package extsort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"github.com/coconut-db/coconut/internal/runblock"
	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
	"github.com/coconut-db/coconut/internal/summary"
)

// recordSize is the size of a record in Sort's byte stream, and what one
// takes of the memory budget.
const recordSize = summary.RecordSize

// blockBytes is one run block's records in memory: the decoded block of a
// run a merge reads, and the write buffer of a spill.
const blockBytes = runblock.DefaultBlockRecords * recordSize

// Compare orders two encoded records; Sort ignores it.
type Compare func(a, b []byte) int

// CompareKeyPrefix returns a Compare that orders records by their first n
// bytes. Sort ignores it: its key prefix under a full-record tie-break is
// the record order Sort sorts under.
func CompareKeyPrefix(n int) Compare {
	return func(a, b []byte) int { return bytes.Compare(a[:n], b[:n]) }
}

// Config parameterizes a sort.
type Config struct {
	// FS hosts the spilled runs (and Sort's output file).
	FS storage.FS
	// RecordSize and Compare describe Sort's byte records: RecordSize must
	// be summary.RecordSize, and Compare is ignored. Sorted reads neither.
	RecordSize int
	Compare    Compare
	// MemBudget is the maximum number of record bytes held in memory at
	// once; it controls run length and merge fan-in. This is the paper's M.
	MemBudget int64
	// TempPrefix names spilled run files (default "extsort").
	TempPrefix string
	// Workers is the number of goroutines used for run formation, for the
	// sort of a lone chunk and for the concurrent merges of each
	// intermediate generation (<= 0 means runtime.GOMAXPROCS(0)). MemBudget
	// is partitioned across workers; the sorted stream is the same for any
	// value.
	Workers int
}

func (c *Config) validate() error {
	if c.FS == nil {
		return errors.New("extsort: nil FS")
	}
	if c.MemBudget < recordSize*4 {
		c.MemBudget = recordSize * 4
	}
	if c.TempPrefix == "" {
		c.TempPrefix = "extsort"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Sort sorts a byte stream of encoded records — each the key, then the
// position little-endian — into outName on cfg.FS: Sorted over the decoded
// records, encoded again. It returns the number of records sorted. It
// refuses a cfg.RecordSize other than summary.RecordSize. A failed Sort
// removes what it wrote of outName, and leaves a file there untouched if it
// failed before creating it. Delete it once its last caller sorts records.
func Sort(cfg Config, in io.Reader, outName string) (int64, error) {
	if cfg.RecordSize != recordSize {
		return 0, fmt.Errorf("extsort: Sort takes %d-byte records, not %d", recordSize, cfg.RecordSize)
	}
	data, err := io.ReadAll(in)
	if err == nil && len(data)%recordSize != 0 {
		err = fmt.Errorf("extsort: input ends %d bytes into a record: %w", len(data)%recordSize, io.ErrUnexpectedEOF)
	}
	if err == nil {
		err = cfg.validate()
	}
	if err != nil {
		return 0, err
	}
	recs := make(summary.SliceReader, len(data)/recordSize)
	for i := range recs {
		recs[i] = summary.DecodeRecord(data[i*recordSize:])
	}
	r, n, err := Sorted(cfg, &recs)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	out := make([]summary.Record, n)
	for k := 0; k < len(out); {
		m, err := r.Read(out[k:])
		if err != nil {
			return 0, err
		}
		k += m
	}
	if err := r.Close(); err != nil {
		return 0, err
	}
	for i, rec := range out {
		rec.Encode(data[i*recordSize:])
	}
	f, err := cfg.FS.Create(outName)
	if err != nil {
		return 0, err
	}
	_, err = f.WriteAt(data, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = cfg.FS.Remove(outName)
		return 0, err
	}
	return n, nil
}

// Sorted consumes all records from in and returns them sorted, as a stream
// read from the final k-way merge as it is pulled, and their number. An
// input that fits one chunk is sorted in memory, on every worker, and merged
// from memory; a longer one is spilled in runs, merged in as many
// generations as the budget's fan-in needs, the last of which is the
// stream. Once Sorted returns, in has been read to its end. The caller
// must Close the Reader, which removes the runs it reads.
func Sorted(cfg Config, in summary.RecordReader) (*Reader, int64, error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	chunkLen, writerBuf := cfg.chunking()
	first, last, err := readFirst(in, chunkLen)
	if err != nil {
		return nil, 0, err
	}
	total := int64(len(first))
	if last {
		return sortChunk(first, cfg.Workers), total, nil
	}
	runs, more, err := makeRuns(cfg, first, in, writerBuf)
	// Intermediate generations merge the runs, deleting them as they are
	// consumed, down to what the final merge, on the whole budget, takes.
	for gen := 0; err == nil && len(runs) > fanIn(cfg.MemBudget); gen++ {
		var next []string
		if next, err = mergeGeneration(cfg, runs, gen); err == nil {
			runs = next
		}
	}
	var r *Reader
	if err == nil {
		r, err = openRuns(cfg.FS, runs)
	}
	if err != nil {
		cleanup(cfg.FS, runs)
		return nil, 0, err
	}
	return r, total + more, nil
}

// chunking returns the chunk length, in records, run formation cuts the
// input into and the write buffer, in bytes, each run is spilled through.
// With one worker that is one full-M chunk, sorted and spilled inline by
// the one writer the original algorithm always carried: the paper's N/M run
// count exactly. With more, the budget is split Workers ways, one share a
// worker for its chunk and its spill writer: the block that writer encodes
// and its write buffer, a block each but at most a quarter of the share
// together, when the budget is small.
func (c *Config) chunking() (chunkLen, writerBuf int) {
	if c.Workers == 1 {
		return int(c.MemBudget / recordSize), blockBytes
	}
	share := c.MemBudget / int64(c.Workers)
	writerBuf = max(min(blockBytes, int(share/4)), recordSize)
	chunkBytes := max(share-int64(2*writerBuf), recordSize*4)
	return int(chunkBytes / recordSize), writerBuf
}

// firstChunkMin is the size, in bytes, the first chunk's buffer starts at:
// it grows with the input, doubling up to the chunk length, so an input far
// below the memory budget is not read into a buffer allocated, and zeroed,
// at the budget's size.
const firstChunkMin = 1 << 20

// readFirst reads the first chunk, like readChunk into a buffer of chunkLen
// records, but into one that grows with the input.
func readFirst(in summary.RecordReader, chunkLen int) (recs []summary.Record, last bool, err error) {
	buf := make([]summary.Record, min(chunkLen, max(firstChunkMin/recordSize, 1)))
	for n := 0; ; {
		recs, last, err = readChunk(in, buf[n:])
		if err != nil || last || len(buf) == chunkLen {
			// Capped at len(buf): the buffer is recycled as a full chunk,
			// and append's growth may have left it larger than chunkLen.
			return buf[: n+len(recs) : len(buf)], last, err
		}
		n = len(buf)
		buf = append(buf, make([]summary.Record, min(n, chunkLen-n))...)
	}
}

// readChunk fills buf from in and returns the records read; last reports
// that the input ended within them.
func readChunk(in summary.RecordReader, buf []summary.Record) (recs []summary.Record, last bool, err error) {
	for n := 0; n < len(buf); {
		m, err := in.Read(buf[n:])
		n += m
		switch {
		case err == io.EOF:
			return buf[:n], true, nil
		case err != nil:
			return nil, true, fmt.Errorf("extsort: reading input: %w", err)
		}
	}
	return buf, false, nil
}

// runName names run i of the partitioning phase.
func runName(cfg Config, i int) string { return fmt.Sprintf("%s.run.%d", cfg.TempPrefix, i) }

// makeRuns performs the partitioning phase on an input whose first, full
// chunk was already read: Workers goroutines, each owning one chunk buffer
// (the first one's is first, run 0), take turns reading the next chunk from
// in under a lock, then sort and spill it as a run file while the next
// goroutine reads. A run is named by its chunk index, taken under the same
// lock, so the set of runs is deterministic for a given chunk length. It
// returns the records read past the first chunk and, on error too, every
// run name that may exist so the caller can clean up.
func makeRuns(cfg Config, first []summary.Record, in summary.RecordReader, writerBuf int) (runs []string, more int64, err error) {
	var (
		mu    sync.Mutex
		nRuns = 1
		done  bool
	)
	// next reads the next chunk into *buf, allocated on first use, and
	// returns it with its run index: nil once the input is exhausted or a
	// sibling failed.
	next := func(buf *[]summary.Record, cancelled func() bool) ([]summary.Record, int, error) {
		mu.Lock()
		defer mu.Unlock()
		if done || cancelled() {
			return nil, 0, nil
		}
		if *buf == nil {
			*buf = make([]summary.Record, len(first))
		}
		data, last, err := readChunk(in, *buf)
		done = last || err != nil
		if len(data) == 0 {
			return nil, 0, err
		}
		more += int64(len(data))
		nRuns++
		return data, nRuns - 1, nil
	}
	err = shard.FanOut(context.Background(), cfg.Workers, cfg.Workers, func(w int, cancelled func() bool) error {
		var buf, data []summary.Record
		idx := 0
		if w == 0 {
			buf, data = first, first
		}
		for {
			if data != nil {
				sortRecords(data)
				sorted := summary.SliceReader(data)
				if _, err := runblock.Write(cfg.FS, runName(cfg, idx), &sorted, writerBuf, false); err != nil {
					return err
				}
			}
			var err error
			if data, idx, err = next(&buf, cancelled); data == nil {
				return err
			}
		}
	})
	for i := 0; i < nRuns; i++ {
		runs = append(runs, runName(cfg, i))
	}
	return runs, more, err
}

// sortChunk sorts one chunk and returns it as a stream. The chunk is cut
// into parts contiguous slices, sorted concurrently in place and merged as
// the stream is read: the same order, and so the same stream, for any
// parts, at no memory beyond the chunk.
func sortChunk(data []summary.Record, parts int) *Reader {
	ranges := shard.Split(len(data), parts)
	// The sorts cannot fail, and the context is never cancelled.
	_ = shard.Scan(context.Background(), parts, len(data), func(_ int, r shard.Range, _ func() bool) error {
		sortRecords(data[r.Lo:r.Hi])
		return nil
	})
	srcs := make([]summary.RecordReader, len(ranges))
	for i, r := range ranges {
		part := summary.SliceReader(data[r.Lo:r.Hi])
		srcs[i] = &part
	}
	m, _ := summary.Merge(srcs...) // slices cannot fail
	return &Reader{Merged: m}
}

// openRuns returns the merge of the run files runs as a stream, each read
// a block at a time (runblock.Records).
func openRuns(fs storage.FS, runs []string) (*Reader, error) {
	r := &Reader{fs: fs}
	srcs := make([]summary.RecordReader, 0, len(runs))
	for _, name := range runs {
		rr, err := runblock.OpenRecords(fs, name)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.files = append(r.files, rr)
		srcs = append(srcs, rr)
	}
	var err error
	if r.Merged, err = summary.Merge(srcs...); err != nil {
		r.Close()
		return nil, err
	}
	r.runs = runs
	return r, nil
}

// runBytes is what each run a merge reads holds of the budget: its decoded
// block (runblock.Records) and the batch summary.Merge reads from it.
const runBytes = blockBytes + summary.MergeBatch*recordSize

// mergeBytes is what a merge holds besides its runs: the block its output's
// writer encodes and that writer's buffer, a block each, and the compressed
// block it decodes a run's next block from, at most about one more.
const mergeBytes = 3 * blockBytes

// fanIn is how many runs one merge holding share bytes of the budget reads
// at once, at least two.
func fanIn(share int64) int { return max(int((share-mergeBytes)/runBytes), 2) }

// mergeGeneration runs one pass of the multi-pass merge: inputs are grouped
// by a fan-in sized from the per-worker budget share, and the groups —
// independent by construction — merge concurrently on up to Workers
// goroutines. On success the group outputs are returned and the inputs have
// been deleted; on error every output this generation produced is removed
// and the surviving inputs are left to the caller.
func mergeGeneration(cfg Config, inputs []string, gen int) ([]string, error) {
	// Partition the budget: running Workers merges at once shrinks the
	// per-merge fan-in. A tiny fan-in multiplies full passes over the data,
	// which costs far more than lost concurrency — so concurrency yields
	// first, shrinking until each merge keeps a fan-in of at least
	// min(8, full-budget fan-in).
	minFanIn := min(8, fanIn(cfg.MemBudget))
	workers := cfg.Workers
	for workers > 1 && fanIn(cfg.MemBudget/int64(workers)) < minFanIn {
		workers--
	}
	k := fanIn(cfg.MemBudget / int64(workers))
	nGroups := (len(inputs) + k - 1) / k
	outs := make([]string, nGroups)
	for g := range outs {
		outs[g] = fmt.Sprintf("%s.merge.%d.%d", cfg.TempPrefix, gen, g)
	}
	err := shard.FanOut(context.Background(), workers, nGroups, func(g int, _ func() bool) error {
		group := inputs[g*k : min((g+1)*k, len(inputs))]
		r, err := openRuns(cfg.FS, group)
		if err != nil {
			return err
		}
		_, err = runblock.Write(cfg.FS, outs[g], r, blockBytes, false)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		cleanup(cfg.FS, outs)
		return nil, err
	}
	return outs, nil
}

// Reader is a sorted record stream: the merge of the sorted slices of an
// in-memory chunk, or of spilled runs, computed as it is read.
type Reader struct {
	*summary.Merged
	fs    storage.FS
	files []*runblock.Records
	// runs are the run files the merge reads, removed by Close.
	runs []string
}

// Close releases the stream: it closes the run files and removes them, and
// lets go of the chunk an in-memory merge reads. It is idempotent.
func (r *Reader) Close() error {
	var errs []error
	for _, f := range r.files {
		errs = append(errs, f.Close())
	}
	cleanup(r.fs, r.runs)
	r.files, r.runs, r.Merged = nil, nil, nil
	return errors.Join(errs...)
}

func cleanup(fs storage.FS, names []string) {
	for _, n := range names {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}
