// Package extsort is the bulk load's sort: external sorting of fixed-size
// records under an explicit memory budget (§3.1 of the paper, "Bottom-up
// Bulk-Loading Using External Sorting"). The partitioning phase scans the
// input in memory-sized chunks, sorts each chunk, and flushes it as a sorted
// run; the merging phase merge-sorts the runs with a tournament over
// buffered sequential readers. An input that fits one chunk skips both: it
// is sorted in memory and written once, straight to the output.
//
// Both phases are parallel, and both fan out on internal/shard: Workers
// goroutines, each owning one chunk buffer, take turns reading the next
// chunk and then sort and flush it as a run while the next one reads, and
// the independent merges of each intermediate generation of a multi-pass
// sort run concurrently. The one chunk of an input that fits is sorted on
// every worker too: as Workers contiguous slices, sorted concurrently in
// place and merged straight into the output. The memory budget M is
// partitioned across the workers (chunk buffers during run formation,
// per-merge buffer groups during merging), so the paper's memory model stays
// honest at any worker count. The sorted output is byte-identical for any
// worker count: comparator ties are broken on the full record encoding,
// which makes the result a pure function of the input multiset, independent
// of chunk boundaries and merge grouping.
//
// Every byte moved goes through the storage VFS, so the paper's O(N/B)
// sequential-I/O claim is directly observable in the I/O statistics. The
// package sorts a record stream into a new file and nothing else: every
// other sorted write — an LSM flush or compaction, a tree insert batch — is
// an in-process merge of its owner's.
package extsort

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"github.com/coconut-db/coconut/internal/shard"
	"github.com/coconut-db/coconut/internal/storage"
)

// Compare orders two records. It must be a strict weak ordering over the
// full record encoding.
type Compare func(a, b []byte) int

// CompareKeyPrefix returns a Compare that orders records by their first n
// bytes (the layout used for invSAX records, whose keys sort bytewise).
func CompareKeyPrefix(n int) Compare {
	return func(a, b []byte) int { return bytes.Compare(a[:n], b[:n]) }
}

// Config parameterizes a sort.
type Config struct {
	// FS hosts the temporary runs and the output file.
	FS storage.FS
	// RecordSize is the fixed encoded size of each record, in bytes.
	RecordSize int
	// Compare orders records.
	Compare Compare
	// MemBudget is the maximum number of record bytes held in memory at
	// once; it controls run length and merge fan-in. This is the paper's M.
	MemBudget int64
	// TempPrefix names temporary run files (default "extsort").
	TempPrefix string
	// BufSize is the per-stream I/O buffer size (default 256 KiB).
	BufSize int
	// Workers is the number of goroutines used for run formation, for the
	// sort of a lone chunk and for the concurrent merges of each
	// intermediate generation (<= 0 means runtime.GOMAXPROCS(0)). MemBudget
	// is partitioned across workers; the output is byte-identical for any
	// value.
	Workers int
	// Tee, when non-nil, is called for every record of the final sorted
	// output, in output order, as it is written. The callback runs on the
	// single goroutine writing the output and must not retain rec. It lets
	// callers capture the sorted stream (the summary column of a tree or a
	// trie) without a second read pass.
	Tee func(rec []byte)
	// WrapOut, when non-nil, wraps the output file handle right after
	// creation and before any bytes are written — the hook the LSM's bulk
	// load and the tree's and trie's use to give the sorted output its
	// physical layout (the block-compressed run codec, checksum blocks for
	// leaf runs). It applies only to outName: temporary runs and
	// intermediate merge generations are written through unwrapped handles
	// and deleted before Sort returns. The wrapper's Close is called in
	// place of the inner file's.
	WrapOut func(storage.File) (storage.File, error)
}

func (c *Config) validate() error {
	switch {
	case c.FS == nil:
		return errors.New("extsort: nil FS")
	case c.RecordSize <= 0:
		return errors.New("extsort: record size must be positive")
	case c.Compare == nil:
		return errors.New("extsort: nil comparator")
	}
	if c.MemBudget < int64(c.RecordSize)*4 {
		c.MemBudget = int64(c.RecordSize) * 4
	}
	if c.TempPrefix == "" {
		c.TempPrefix = "extsort"
	}
	if c.BufSize <= 0 {
		c.BufSize = 256 << 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// totalOrder refines cmp with a full-record tie-break. Sorting under a total
// order makes the output a pure function of the input multiset — the same
// bytes regardless of how records were chunked into runs or how runs were
// grouped into merges, and therefore regardless of Workers.
func totalOrder(cmp Compare) Compare {
	return func(a, b []byte) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return bytes.Compare(a, b)
	}
}

// Sort consumes all records from in, sorts them, and writes the sorted
// stream to outName on cfg.FS. It returns the number of records sorted.
// Records comparing equal under cfg.Compare are ordered by their full
// encoding, so the output is deterministic for any cfg.Workers. An input
// that fits one chunk is sorted in memory, on every worker, and written
// once, straight to outName; a longer one goes through run files and their
// merge.
func Sort(cfg Config, in io.Reader, outName string) (int64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	cfg.Compare = totalOrder(cfg.Compare)
	chunkLen, writerBuf := cfg.chunking()
	first, last, err := readFirst(cfg, in, chunkLen)
	if err != nil {
		return 0, err
	}
	total := int64(len(first) / cfg.RecordSize)
	if last {
		return total, writeSorted(cfg, outName, first, cfg.Workers)
	}
	runs, more, err := makeRuns(cfg, first, in, writerBuf)
	if err != nil {
		cleanup(cfg.FS, runs)
		return 0, err
	}
	if err := mergeAll(cfg, runs, outName); err != nil {
		return 0, err
	}
	return total + more, nil
}

// SortInMemory sorts records (a concatenation of fixed-size records) in
// place. It is the building block of the run-formation phase and is exposed
// for callers whose data always fits in memory (e.g. sorting summaries for
// a non-materialized index when M is ample).
func SortInMemory(records []byte, recordSize int, cmp Compare) {
	n := len(records) / recordSize
	sort.Sort(&recordSlice{data: records, size: recordSize, n: n, cmp: cmp,
		swapBuf: make([]byte, recordSize)})
}

type recordSlice struct {
	data    []byte
	size, n int
	cmp     Compare
	swapBuf []byte
}

func (r *recordSlice) Len() int { return r.n }
func (r *recordSlice) Less(i, j int) bool {
	return r.cmp(r.data[i*r.size:(i+1)*r.size], r.data[j*r.size:(j+1)*r.size]) < 0
}
func (r *recordSlice) Swap(i, j int) {
	a := r.data[i*r.size : (i+1)*r.size]
	b := r.data[j*r.size : (j+1)*r.size]
	copy(r.swapBuf, a)
	copy(a, b)
	copy(b, r.swapBuf)
}

// chunking returns the chunk length run formation cuts the input into and
// the writer buffer each run is flushed through. With one worker that is one
// full-M chunk buffer, sorted and flushed inline, plus the one BufSize writer
// buffer the original algorithm always carried: the paper's N/M run count
// (and the I/O traces the experiments reproduce) exactly. With more, writer
// buffers take at most half the budget, shrinking below BufSize when Workers
// is large relative to it, one per worker; the rest is split Workers+1 ways
// although only Workers chunk buffers are resident, one per worker. The
// Workers+1 split is kept so that chunk lengths, and with them run
// boundaries and run files, stay what they were when a separate reader held
// a chunk of its own.
func (c *Config) chunking() (chunkLen, writerBuf int) {
	if c.Workers == 1 {
		return int(c.MemBudget/int64(c.RecordSize)) * c.RecordSize, c.BufSize
	}
	writerBuf = c.BufSize
	if max := int(c.MemBudget / int64(2*c.Workers)); writerBuf > max {
		writerBuf = max
	}
	if writerBuf < c.RecordSize {
		writerBuf = c.RecordSize
	}
	chunkBytes := (c.MemBudget - int64(c.Workers*writerBuf)) / int64(c.Workers+1)
	if min := int64(c.RecordSize) * 4; chunkBytes < min {
		chunkBytes = min
	}
	return int(chunkBytes/int64(c.RecordSize)) * c.RecordSize, writerBuf
}

// firstChunkMin is the size the first chunk's buffer starts at: it grows with
// the input, doubling up to the chunk length, so an input far below the
// memory budget is not read into a buffer allocated, and zeroed, at the
// budget's size.
const firstChunkMin = 1 << 20

// readFirst reads the first chunk, like readChunk into a buffer of chunkLen
// bytes, but into one that grows with the input.
func readFirst(cfg Config, in io.Reader, chunkLen int) (recs []byte, last bool, err error) {
	buf := make([]byte, min(chunkLen, max(firstChunkMin/cfg.RecordSize, 1)*cfg.RecordSize))
	for n := 0; ; {
		recs, last, err = readChunk(cfg, in, buf[n:])
		if err != nil || last || len(buf) == chunkLen {
			// Capped at len(buf): the buffer is recycled as a full chunk,
			// and append's growth may have left it larger than chunkLen.
			return buf[: n+len(recs) : len(buf)], last, err
		}
		n = len(buf)
		buf = append(buf, make([]byte, min(n, chunkLen-n))...)
	}
}

// readChunk fills buf from in and returns the records read; last reports
// that the input ended within them.
func readChunk(cfg Config, in io.Reader, buf []byte) (recs []byte, last bool, err error) {
	n, err := io.ReadFull(in, buf)
	switch {
	case err == nil:
		return buf, false, nil
	case err != io.EOF && err != io.ErrUnexpectedEOF:
		return nil, true, fmt.Errorf("extsort: reading input: %w", err)
	case n%cfg.RecordSize != 0:
		return nil, true, fmt.Errorf("extsort: reading input: %w", io.ErrUnexpectedEOF)
	}
	return buf[:n], true, nil
}

// runName names run i of the partitioning phase.
func runName(cfg Config, i int) string { return fmt.Sprintf("%s.run.%d", cfg.TempPrefix, i) }

// makeRuns performs the partitioning phase on an input whose first, full
// chunk was already read: Workers goroutines, each owning one chunk buffer
// (the first one's is first, run 0), take turns reading the next chunk from
// in under a lock, then sort and flush it as a run file while the next
// goroutine reads. A run is named by its chunk index, taken under the same
// lock, so the set of runs is deterministic for a given chunk length. It
// returns the records read past the first chunk and, on error too, every
// run name that may exist so the caller can clean up.
func makeRuns(cfg Config, first []byte, in io.Reader, writerBuf int) (runs []string, more int64, err error) {
	var (
		mu    sync.Mutex
		nRuns = 1
		done  bool
	)
	// next reads the next chunk into *buf, allocated on first use, and
	// returns it with its run index: nil once the input is exhausted or a
	// sibling failed.
	next := func(buf *[]byte, cancelled func() bool) ([]byte, int, error) {
		mu.Lock()
		defer mu.Unlock()
		if done || cancelled() {
			return nil, 0, nil
		}
		if *buf == nil {
			*buf = make([]byte, len(first))
		}
		data, last, err := readChunk(cfg, in, *buf)
		done = last || err != nil
		if len(data) == 0 {
			return nil, 0, err
		}
		more += int64(len(data) / cfg.RecordSize)
		nRuns++
		return data, nRuns - 1, nil
	}
	err = shard.FanOut(context.Background(), cfg.Workers, cfg.Workers, func(w int, cancelled func() bool) error {
		var buf, data []byte
		idx := 0
		if w == 0 {
			buf, data = first, first
		}
		for {
			if data != nil {
				if err := writeSorted(cfg.temp(writerBuf), runName(cfg, idx), data, 1); err != nil {
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

// temp returns cfg for the sort's own temporaries — runs and intermediate
// merge generations: no Tee, no WrapOut, bufSize-byte writer buffers.
func (c Config) temp(bufSize int) Config {
	c.Tee, c.WrapOut, c.BufSize = nil, nil, bufSize
	return c
}

// writeSorted sorts one chunk and writes it as file name. The chunk is cut
// into parts contiguous slices, sorted concurrently in place and merged
// under cfg.Compare straight into the output: the same total order, and so
// the same bytes and the same Tee sequence, for any parts, at no memory
// beyond the chunk.
func writeSorted(cfg Config, name string, data []byte, parts int) error {
	size := cfg.RecordSize
	n := len(data) / size
	err := shard.Scan(context.Background(), parts, n, func(_ int, r shard.Range, _ func() bool) error {
		SortInMemory(data[r.Lo*size:r.Hi*size], size, cfg.Compare)
		return nil
	})
	if err != nil {
		return err
	}
	var streams []*mergeStream
	for _, r := range shard.Split(n, parts) {
		streams = append(streams, &mergeStream{r: bytes.NewReader(data[r.Lo*size : r.Hi*size]), rec: make([]byte, size)})
	}
	return merge(cfg, name, streams)
}

// writeOut creates name, wraps it with WrapOut, and fills it through a
// BufSize sequential writer: fill hands put each record in order, which
// writes it and shows it to Tee. A failed write removes the file — from the
// Create on, a pre-existing file at name is gone and the path is this
// call's.
func writeOut(cfg Config, name string, fill func(put func(rec []byte) error) error) (err error) {
	f, err := cfg.FS.Create(name)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil && cfg.FS.Exists(name) {
			_ = cfg.FS.Remove(name)
		}
	}()
	if cfg.WrapOut != nil {
		wf, werr := cfg.WrapOut(f)
		if werr != nil {
			f.Close()
			return werr
		}
		f = wf
	}
	w := storage.NewSequentialWriter(f, 0, cfg.BufSize)
	err = fill(func(rec []byte) error {
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if cfg.Tee != nil {
			cfg.Tee(rec)
		}
		return nil
	})
	if err == nil {
		err = w.Flush()
	}
	// A failed Close can mean deferred write-back errors (ENOSPC/EIO);
	// swallowing it would let callers install a truncated output.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mergeAll merges runs into outName, in multiple generations if the fan-in
// exceeds what the memory budget allows, deleting the runs as they are
// consumed. Every run and temporary is removed on every error path too,
// along with a partially written outName.
func mergeAll(cfg Config, runs []string, outName string) (err error) {
	cur := runs
	defer func() {
		if err != nil {
			cleanup(cfg.FS, cur)
		}
	}()
	// The final pass is a single merge using the whole budget.
	finalFanIn := int(cfg.MemBudget/int64(cfg.BufSize)) - 1
	if finalFanIn < 2 {
		finalFanIn = 2
	}
	for gen := 0; len(cur) > finalFanIn; gen++ {
		next, gerr := mergeGeneration(cfg, cur, gen)
		if gerr != nil {
			return gerr
		}
		cur = next
	}
	if err := mergeOnce(cfg, cur, outName); err != nil {
		return err
	}
	cleanup(cfg.FS, cur)
	return nil
}

// mergeGeneration runs one pass of the multi-pass merge: inputs are grouped
// by a fan-in sized from the per-worker budget share, and the groups —
// independent by construction — merge concurrently on up to Workers
// goroutines. On success the group outputs are returned and the inputs have
// been deleted; on error every output this generation produced is removed
// and the surviving inputs are left to the caller.
func mergeGeneration(cfg Config, inputs []string, gen int) ([]string, error) {
	// Partition the budget: each concurrent merge holds fanIn+1 buffers, so
	// running Workers merges at once shrinks the per-merge fan-in. A tiny
	// fan-in multiplies full passes over the data, which costs far more
	// than lost concurrency — so concurrency yields first, shrinking until
	// each merge keeps a fan-in of at least min(8, full-budget fan-in).
	fullFanIn := int(cfg.MemBudget/int64(cfg.BufSize)) - 1
	minFanIn := 8
	if minFanIn > fullFanIn {
		minFanIn = fullFanIn
	}
	if minFanIn < 2 {
		minFanIn = 2
	}
	workers := cfg.Workers
	fanIn := int(cfg.MemBudget/(int64(workers)*int64(cfg.BufSize))) - 1
	if fanIn < minFanIn {
		workers = int(cfg.MemBudget / (int64(minFanIn+1) * int64(cfg.BufSize)))
		if workers < 1 {
			workers = 1
		}
		fanIn = int(cfg.MemBudget/(int64(workers)*int64(cfg.BufSize))) - 1
		if fanIn < 2 {
			fanIn = 2
		}
	}
	nGroups := (len(inputs) + fanIn - 1) / fanIn
	outs := make([]string, nGroups)
	for g := range outs {
		outs[g] = fmt.Sprintf("%s.merge.%d.%d", cfg.TempPrefix, gen, g)
	}
	err := shard.FanOut(context.Background(), workers, nGroups, func(g int, _ func() bool) error {
		group := inputs[g*fanIn : min((g+1)*fanIn, len(inputs))]
		if err := mergeOnce(cfg.temp(cfg.BufSize), group, outs[g]); err != nil {
			return err
		}
		cleanup(cfg.FS, group)
		return nil
	})
	if err != nil {
		cleanup(cfg.FS, outs)
		return nil, err
	}
	return outs, nil
}

// mergeStream is one sorted source of a merge — a run file or a sorted part
// of an in-memory chunk — and rec its next record.
type mergeStream struct {
	r   io.Reader
	rec []byte
	ok  bool
}

func (s *mergeStream) advance() error {
	_, err := io.ReadFull(s.r, s.rec)
	if err == io.EOF {
		s.ok = false
		return nil
	}
	if err != nil {
		return err
	}
	s.ok = true
	return nil
}

type mergeHeap struct {
	streams []*mergeStream
	cmp     Compare
}

func (h *mergeHeap) Len() int { return len(h.streams) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.cmp(h.streams[i].rec, h.streams[j].rec) < 0
}
func (h *mergeHeap) Swap(i, j int) { h.streams[i], h.streams[j] = h.streams[j], h.streams[i] }
func (h *mergeHeap) Push(x any)    { h.streams = append(h.streams, x.(*mergeStream)) }
func (h *mergeHeap) Pop() any {
	old := h.streams
	n := len(old)
	s := old[n-1]
	h.streams = old[:n-1]
	return s
}

// mergeOnce merges runs — one or more — into outName.
func mergeOnce(cfg Config, runs []string, outName string) error {
	var streams []*mergeStream
	var files []storage.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, name := range runs {
		f, err := cfg.FS.Open(name)
		if err != nil {
			return err
		}
		files = append(files, f)
		streams = append(streams, &mergeStream{
			r:   storage.NewSequentialReader(f, 0, -1, cfg.BufSize),
			rec: make([]byte, cfg.RecordSize),
		})
	}
	return merge(cfg, outName, streams)
}

// merge writes the records of streams, each sorted under cfg.Compare, to
// name in one k-way merge under cfg.Compare.
func merge(cfg Config, name string, streams []*mergeStream) error {
	h := &mergeHeap{cmp: cfg.Compare}
	for _, s := range streams {
		if err := s.advance(); err != nil {
			return err
		}
		if s.ok {
			h.streams = append(h.streams, s)
		}
	}
	heap.Init(h)
	return writeOut(cfg, name, func(put func(rec []byte) error) error {
		for h.Len() > 0 {
			s := h.streams[0]
			if err := put(s.rec); err != nil {
				return err
			}
			if err := s.advance(); err != nil {
				return err
			}
			if s.ok {
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
		return nil
	})
}

func cleanup(fs storage.FS, names []string) {
	for _, n := range names {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}
