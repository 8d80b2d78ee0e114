// Package extsort implements external sorting of fixed-size records under
// an explicit memory budget: the partitioning phase scans the input in
// memory-sized chunks, sorts each chunk, and flushes it as a sorted run;
// the merging phase merge-sorts the runs with a tournament over buffered
// sequential readers (§3.1 of the paper, "Bottom-up Bulk-Loading Using
// External Sorting").
//
// Both phases are parallel: a reader goroutine hands fixed-size chunks to a
// pool of Workers that sort and flush runs concurrently, and the independent
// merges of each intermediate generation run concurrently. The memory budget
// M is partitioned across the pipeline (Workers+1 chunk buffers during run
// formation, per-merge buffer groups during merging), so the paper's memory
// model stays honest at any worker count. The sorted output
// is byte-identical for any worker count: comparator ties are broken on the
// full record encoding, which makes the result a pure function of the input
// multiset, independent of chunk boundaries and merge grouping.
//
// Every byte moved goes through the storage VFS, so the paper's O(N/B)
// sequential-I/O claim is directly observable in the I/O statistics.
package extsort

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

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
	// Workers is the number of goroutines used for run formation and for
	// the concurrent merges of each intermediate generation (default
	// runtime.NumCPU()). MemBudget is partitioned across workers; the
	// output is byte-identical for any value.
	Workers int
	// Tee, when non-nil, is called for every record of the final sorted
	// output, in output order, as it is written. The callback runs on the
	// single goroutine performing the last pass and must not retain rec.
	// It lets callers capture the sorted stream (e.g. LSM compaction
	// building its in-memory key array) without a second read pass.
	Tee func(rec []byte)
	// WrapOut, when non-nil, wraps the final output file handle right
	// after creation and before any bytes are written — the hook the LSM
	// and the trie use to give the sorted output its physical layout (the
	// block-compressed run codec, checksum blocks for trie leaves). It applies
	// only to outName: temporary runs and intermediate merge generations
	// are written through unwrapped handles and deleted before Sort or
	// Merge returns. The wrapper's Close is called in place of the inner
	// file's.
	WrapOut func(storage.File) (storage.File, error)
	// WrapIn, when non-nil, wraps the handle of each ORIGINAL input run
	// named in a Merge call right after open — the read-side counterpart
	// of WrapOut for inputs stored in a physical layout of their own (the
	// LSM's compressed runs, decoded and CRC-checked block by block).
	// Intermediate files extsort itself wrote are opened unwrapped. Sort
	// ignores it (Sort's inputs come from a reader, not run files).
	WrapIn func(storage.File) (storage.File, error)
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
		c.Workers = runtime.NumCPU()
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
// encoding, so the output is deterministic for any cfg.Workers.
func Sort(cfg Config, in io.Reader, outName string) (int64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	cfg.Compare = totalOrder(cfg.Compare)
	cfg.WrapIn = nil // Sort's run files are its own, never in a wrapped layout
	runs, total, err := makeRuns(cfg, in)
	if err != nil {
		cleanup(cfg.FS, runs)
		return 0, err
	}
	if err := mergeAll(cfg, runs, outName, true); err != nil {
		return 0, err
	}
	return total, nil
}

// Merge merge-sorts the already-sorted run files named by runs into outName
// without modifying or removing them. It shares Sort's merge machinery —
// multi-pass generations, Workers-way parallelism, partitioned memory
// budget — and cleans up every intermediate file it creates on both success
// and error. LSM compaction uses it to fold tiers.
//
// The output is sorted under cfg.Compare and byte-identical for any
// Workers: the merge heap refines comparator ties on full record bytes,
// and greedy min-head merging under a total order is associative, so the
// result does not depend on how the multi-pass grouping splits the runs.
func Merge(cfg Config, runs []string, outName string) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	cfg.Compare = totalOrder(cfg.Compare)
	return mergeAll(cfg, runs, outName, false)
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

// makeRuns performs the partitioning phase: a single reader goroutine (the
// caller) cuts the input into chunks of MemBudget/Workers bytes and hands
// them to a pool of workers that sort and flush each chunk as a run file.
// Run names are assigned by chunk index, so the set of runs produced is
// deterministic for a given Workers. On error it returns every run name
// that may exist so the caller can clean up.
func makeRuns(cfg Config, in io.Reader) (runs []string, total int64, err error) {
	if cfg.Workers == 1 {
		return makeRunsSerial(cfg, in)
	}
	// Resident memory during parallel run formation is Workers+1 chunk
	// buffers (Workers in flight plus the one the reader is filling) plus
	// one run-writer buffer per worker — all of it comes out of MemBudget.
	// Writer buffers take at most half the budget, shrinking below BufSize
	// when Workers is large relative to it.
	writerBuf := cfg.BufSize
	if max := int(cfg.MemBudget / int64(2*cfg.Workers)); writerBuf > max {
		writerBuf = max
	}
	if writerBuf < cfg.RecordSize {
		writerBuf = cfg.RecordSize
	}
	chunkBytes := (cfg.MemBudget - int64(cfg.Workers*writerBuf)) / int64(cfg.Workers+1)
	if min := int64(cfg.RecordSize) * 4; chunkBytes < min {
		chunkBytes = min
	}
	chunkLen := int(chunkBytes/int64(cfg.RecordSize)) * cfg.RecordSize

	runName := func(i int) string { return fmt.Sprintf("%s.run.%d", cfg.TempPrefix, i) }

	type job struct {
		idx  int
		data []byte
	}
	var (
		jobs     = make(chan job)
		free     = make(chan []byte, cfg.Workers+1)
		fail     = make(chan struct{})
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	setErr := func(e error) {
		errOnce.Do(func() { firstErr = e; close(fail) })
	}
	for i := 0; i < cfg.Workers+1; i++ {
		free <- make([]byte, 0, chunkLen)
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				select {
				case <-fail:
					// A sibling already failed; just recycle the buffer.
				default:
					if e := writeRun(cfg, runName(j.idx), j.data, writerBuf); e != nil {
						setErr(e)
					}
				}
				free <- j.data[:0]
			}
		}()
	}

	nRuns := 0
reading:
	for {
		select {
		case <-fail:
			break reading
		default:
		}
		buf := (<-free)[:chunkLen]
		n, rerr := io.ReadFull(in, buf)
		if n > 0 {
			if n%cfg.RecordSize != 0 {
				setErr(fmt.Errorf("extsort: reading input: %w", io.ErrUnexpectedEOF))
				break
			}
			jobs <- job{idx: nRuns, data: buf[:n]}
			nRuns++
			total += int64(n / cfg.RecordSize)
		}
		switch rerr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			break reading
		default:
			setErr(fmt.Errorf("extsort: reading input: %w", rerr))
			break reading
		}
	}
	close(jobs)
	wg.Wait()
	for i := 0; i < nRuns; i++ {
		runs = append(runs, runName(i))
	}
	return runs, total, firstErr
}

// makeRunsSerial is the Workers=1 partitioning phase: one full-M chunk
// buffer, sorted and flushed inline (plus the one BufSize writer buffer
// the original algorithm always carried). Keeping the single-worker path
// unpipelined preserves the paper's N/M run count (and the I/O traces the
// experiments reproduce) exactly — partitioning the budget for a pipeline
// only pays off when a second worker exists to overlap with.
func makeRunsSerial(cfg Config, in io.Reader) (runs []string, total int64, err error) {
	chunkLen := int(cfg.MemBudget/int64(cfg.RecordSize)) * cfg.RecordSize
	buf := make([]byte, chunkLen)
	for {
		n, rerr := io.ReadFull(in, buf)
		if n > 0 {
			if n%cfg.RecordSize != 0 {
				return runs, total, fmt.Errorf("extsort: reading input: %w", io.ErrUnexpectedEOF)
			}
			name := fmt.Sprintf("%s.run.%d", cfg.TempPrefix, len(runs))
			runs = append(runs, name) // before writeRun: a partial file must reach cleanup
			if err := writeRun(cfg, name, buf[:n], cfg.BufSize); err != nil {
				return runs, total, err
			}
			total += int64(n / cfg.RecordSize)
		}
		switch rerr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return runs, total, nil
		default:
			return runs, total, fmt.Errorf("extsort: reading input: %w", rerr)
		}
	}
}

// writeRun sorts one chunk and flushes it as the named run file through a
// bufSize-byte writer buffer.
func writeRun(cfg Config, name string, data []byte, bufSize int) error {
	SortInMemory(data, cfg.RecordSize, cfg.Compare)
	f, err := cfg.FS.Create(name)
	if err != nil {
		return err
	}
	w := storage.NewSequentialWriter(f, 0, bufSize)
	if _, err := w.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mergeAll merges runs into outName, in multiple generations if the fan-in
// exceeds what the memory budget allows. When ownsInputs, the input runs
// are deleted as they are consumed. Every temporary this function creates —
// and, when ownsInputs, every surviving input — is removed on every error
// path, along with a partially written outName.
func mergeAll(cfg Config, runs []string, outName string, ownsInputs bool) (err error) {
	if len(runs) == 0 {
		// Empty input: create an empty output file (wrapped, so even an
		// empty output carries its layout's header and footer).
		f, cerr := cfg.FS.Create(outName)
		if cerr != nil {
			return cerr
		}
		if cfg.WrapOut != nil {
			wf, werr := cfg.WrapOut(f)
			if werr != nil {
				f.Close()
				return werr
			}
			f = wf
		}
		return f.Close()
	}
	// Only the caller's original runs may be in a wrapped physical layout;
	// intermediates below are extsort's own raw files.
	var orig map[string]bool
	if cfg.WrapIn != nil {
		orig = make(map[string]bool, len(runs))
		for _, n := range runs {
			orig[n] = true
		}
	}
	cur, owned := runs, ownsInputs
	outCreated := false
	defer func() {
		if err != nil {
			if owned {
				cleanup(cfg.FS, cur)
			}
			// Remove a partially written output — but only one this call
			// created: a pre-existing file at outName (e.g. a retry over a
			// previous result) is the caller's, not ours, until the final
			// pass truncates it.
			if outCreated && cfg.FS.Exists(outName) {
				_ = cfg.FS.Remove(outName)
			}
		}
	}()
	// The final pass is a single merge using the whole budget.
	finalFanIn := int(cfg.MemBudget/int64(cfg.BufSize)) - 1
	if finalFanIn < 2 {
		finalFanIn = 2
	}
	for gen := 0; len(cur) > finalFanIn; gen++ {
		next, gerr := mergeGeneration(cfg, cur, gen, owned, orig)
		if gerr != nil {
			return gerr
		}
		cur, owned = next, true
	}
	markOut := func() { outCreated = true }
	if len(cur) == 1 {
		// Single run: rename by copy (VFS has no rename; a sequential copy
		// keeps the I/O pattern honest).
		if err := copyFile(cfg, cur[0], outName, markOut, orig); err != nil {
			return err
		}
	} else if err := mergeOnce(cfg, cur, outName, cfg.Tee, markOut, cfg.WrapOut, orig); err != nil {
		return err
	}
	if owned {
		cleanup(cfg.FS, cur)
	}
	return nil
}

// mergeGeneration runs one pass of the multi-pass merge: inputs are grouped
// by a fan-in sized from the per-worker budget share, and the groups —
// independent by construction — merge concurrently on up to Workers
// goroutines. On success the group outputs are returned and (when owned)
// the inputs have been deleted; on error every output this generation
// produced is removed and the surviving inputs are left to the caller.
func mergeGeneration(cfg Config, inputs []string, gen int, owned bool, orig map[string]bool) ([]string, error) {
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
	errs := make([]error, nGroups)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for g := 0; g < nGroups; g++ {
		lo := g * fanIn
		hi := lo + fanIn
		if hi > len(inputs) {
			hi = len(inputs)
		}
		outs[g] = fmt.Sprintf("%s.merge.%d.%d", cfg.TempPrefix, gen, g)
		wg.Add(1)
		sem <- struct{}{}
		go func(g, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Intermediate generations never tee: only the final pass over
			// outName sees each record exactly once.
			if err := mergeOnce(cfg, inputs[lo:hi], outs[g], nil, nil, nil, orig); err != nil {
				errs[g] = err
				return
			}
			if owned {
				cleanup(cfg.FS, inputs[lo:hi])
			}
		}(g, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			cleanup(cfg.FS, outs)
			return nil, e
		}
	}
	return outs, nil
}

type mergeStream struct {
	r   *storage.SequentialReader
	rec []byte
	ok  bool
}

func (s *mergeStream) advance(recordSize int) error {
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

// mergeOnce merges runs into outName. onCreate, when non-nil, fires right
// after the output file is created/truncated — the point from which a
// pre-existing file at outName is gone and cleanup owns the path.
func mergeOnce(cfg Config, runs []string, outName string, tee func([]byte), onCreate func(), wrap func(storage.File) (storage.File, error), orig map[string]bool) (err error) {
	out, err := cfg.FS.Create(outName)
	if err != nil {
		return err
	}
	if onCreate != nil {
		onCreate()
	}
	if wrap != nil {
		wrapped, werr := wrap(out)
		if werr != nil {
			out.Close()
			return werr
		}
		out = wrapped
	}
	defer func() {
		// A failed Close can mean deferred write-back errors (ENOSPC/EIO);
		// swallowing it would let callers install a truncated output.
		if cerr := out.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := storage.NewSequentialWriter(out, 0, cfg.BufSize)

	h := &mergeHeap{cmp: cfg.Compare}
	var files []storage.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, name := range runs {
		f, err := openInput(cfg, name, orig)
		if err != nil {
			return err
		}
		files = append(files, f)
		s := &mergeStream{
			r:   storage.NewSequentialReader(f, 0, -1, cfg.BufSize),
			rec: make([]byte, cfg.RecordSize),
		}
		if err := s.advance(cfg.RecordSize); err != nil {
			return err
		}
		if s.ok {
			h.streams = append(h.streams, s)
		}
	}
	heap.Init(h)
	for h.Len() > 0 {
		s := h.streams[0]
		if _, err := w.Write(s.rec); err != nil {
			return err
		}
		if tee != nil {
			tee(s.rec)
		}
		if err := s.advance(cfg.RecordSize); err != nil {
			return err
		}
		if s.ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return w.Flush()
}

// openInput opens one merge input, wrapping it with WrapIn when it is one
// of the caller's original runs (orig) rather than an intermediate.
func openInput(cfg Config, name string, orig map[string]bool) (storage.File, error) {
	f, err := cfg.FS.Open(name)
	if err != nil {
		return nil, err
	}
	if cfg.WrapIn != nil && orig[name] {
		wf, werr := cfg.WrapIn(f)
		if werr != nil {
			f.Close()
			return nil, werr
		}
		return wf, nil
	}
	return f, nil
}

// copyFile sequentially copies from to to. It is the final pass when a
// single run remains, so a configured Tee sees every record here too;
// onCreate fires as in mergeOnce.
func copyFile(cfg Config, from, to string, onCreate func(), orig map[string]bool) (err error) {
	src, err := openInput(cfg, from, orig)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := cfg.FS.Create(to)
	if err != nil {
		return err
	}
	if onCreate != nil {
		onCreate()
	}
	if cfg.WrapOut != nil {
		wrapped, werr := cfg.WrapOut(dst)
		if werr != nil {
			dst.Close()
			return werr
		}
		dst = wrapped
	}
	defer func() {
		if cerr := dst.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	r := storage.NewSequentialReader(src, 0, -1, cfg.BufSize)
	w := storage.NewSequentialWriter(dst, 0, cfg.BufSize)
	if cfg.Tee != nil {
		rec := make([]byte, cfg.RecordSize)
		for {
			if _, err := io.ReadFull(r, rec); err != nil {
				if err == io.EOF {
					break
				}
				return err
			}
			if _, err := w.Write(rec); err != nil {
				return err
			}
			cfg.Tee(rec)
		}
		return w.Flush()
	}
	buf := make([]byte, cfg.BufSize)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return w.Flush()
}

func cleanup(fs storage.FS, names []string) {
	for _, n := range names {
		if fs.Exists(n) {
			_ = fs.Remove(n)
		}
	}
}
