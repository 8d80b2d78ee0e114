package extsort

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// TransformConfig parameterizes a TransformReader: a streamed record source
// that converts fixed-size input records into fixed-size output records on a
// pool of worker goroutines while preserving input order. It is the
// machinery behind the batched summarization pipeline feeding Sort's run
// formation: one goroutine reads raw input blocks sequentially, Workers
// goroutines transform the blocks concurrently, and the consumer drains the
// transformed blocks strictly in input order — so the produced stream is
// byte-identical for any worker count.
type TransformConfig struct {
	// In supplies the raw input bytes; it is read sequentially by a single
	// producer goroutine, InRecordSize granularity enforced, one block at a
	// time into the block's buffer: an io.SectionReader over a file reads
	// each block with one ReadAt, with no staging copy.
	In io.Reader
	// InRecordSize is the fixed encoded size of one input record.
	InRecordSize int
	// OutRecordSize is the fixed encoded size of one output record.
	OutRecordSize int
	// Workers is the number of transform goroutines (<= 0 means
	// runtime.GOMAXPROCS(0)). The output stream is identical for any value.
	Workers int
	// BlockRecords is the number of records per block (default: sized so a
	// block holds ~256 KiB of input). Blocks are the unit of hand-off;
	// resident memory is (Workers+2) blocks of input plus output bytes.
	BlockRecords int
	// Transform converts one block: in holds n*InRecordSize input bytes, out
	// has room for n*OutRecordSize bytes and must be filled completely. base
	// is the ordinal of the block's first record in the whole stream. It is
	// called concurrently from Workers goroutines.
	Transform func(in, out []byte, base int64) error
}

func (c *TransformConfig) validate() error {
	switch {
	case c.In == nil:
		return fmt.Errorf("extsort: transform: nil input")
	case c.InRecordSize <= 0 || c.OutRecordSize <= 0:
		return fmt.Errorf("extsort: transform: record sizes must be positive")
	case c.Transform == nil:
		return fmt.Errorf("extsort: transform: nil transform")
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BlockRecords <= 0 {
		c.BlockRecords = (256 << 10) / c.InRecordSize
	}
	if c.BlockRecords < 1 {
		c.BlockRecords = 1
	}
	return nil
}

// tblock is one pipeline block. ready is closed by the worker that filled
// out (or recorded err); the consumer waits on it before draining.
type tblock struct {
	in    []byte
	out   []byte
	n     int
	base  int64
	err   error
	ready chan struct{}
}

// TransformReader is the io.Reader side of the pipeline. It is not safe for
// concurrent use; Close must be called exactly once when done (also on
// error paths) to release the producer and worker goroutines.
type TransformReader struct {
	cfg   TransformConfig
	order chan *tblock // blocks in input order, as dispatched
	free  chan *tblock
	quit  chan struct{}
	wg    sync.WaitGroup
	cur   *tblock
	avail []byte
	err   error
}

// NewTransformReader starts the pipeline goroutines and returns the ordered
// reader over the transformed record stream.
func NewTransformReader(cfg TransformConfig) (*TransformReader, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nBlocks := cfg.Workers + 2
	t := &TransformReader{
		cfg:   cfg,
		order: make(chan *tblock, nBlocks),
		free:  make(chan *tblock, nBlocks),
		quit:  make(chan struct{}),
	}
	for i := 0; i < nBlocks; i++ {
		t.free <- &tblock{
			in:  make([]byte, cfg.BlockRecords*cfg.InRecordSize),
			out: make([]byte, cfg.BlockRecords*cfg.OutRecordSize),
		}
	}
	jobs := make(chan *tblock)
	for range cfg.Workers {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for {
				select {
				case <-t.quit:
					return
				case b, ok := <-jobs:
					if !ok {
						return
					}
					b.err = cfg.Transform(b.in[:b.n*cfg.InRecordSize],
						b.out[:b.n*cfg.OutRecordSize], b.base)
					close(b.ready)
				}
			}
		}()
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(jobs)
		defer close(t.order)
		var base int64
		for {
			var b *tblock
			select {
			case <-t.quit:
				return
			case b = <-t.free:
			}
			n, rerr := io.ReadFull(cfg.In, b.in)
			if n%cfg.InRecordSize != 0 && (rerr == nil || rerr == io.ErrUnexpectedEOF) {
				rerr = fmt.Errorf("extsort: transform input: %w", io.ErrUnexpectedEOF)
			}
			if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
				// Surface the read error in order, as a block of its own.
				b.n, b.err, b.ready = 0, rerr, closedChan
				select {
				case t.order <- b:
				case <-t.quit:
				}
				return
			}
			if n == 0 {
				return
			}
			b.n, b.base, b.err = n/cfg.InRecordSize, base, nil
			b.ready = make(chan struct{})
			base += int64(b.n)
			// order has capacity for every block in existence, so this send
			// never blocks; the jobs send below waits for a free worker.
			t.order <- b
			select {
			case jobs <- b:
			case <-t.quit:
				return
			}
			if rerr != nil { // EOF after a final partial block
				return
			}
		}
	}()
	return t, nil
}

// closedChan is a pre-closed ready channel for error blocks that never
// visit a worker.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Read drains the transformed blocks strictly in input order.
func (t *TransformReader) Read(p []byte) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	for len(t.avail) == 0 {
		if t.cur != nil {
			b := t.cur
			t.cur = nil
			select {
			case t.free <- b:
			default: // impossible: free has capacity for every block
			}
		}
		b, ok := <-t.order
		if !ok {
			t.err = io.EOF
			return 0, io.EOF
		}
		<-b.ready
		if b.err != nil {
			t.err = b.err
			return 0, b.err
		}
		t.cur = b
		t.avail = b.out[:b.n*t.cfg.OutRecordSize]
	}
	n := copy(p, t.avail)
	t.avail = t.avail[n:]
	return n, nil
}

// Close releases the pipeline goroutines. It must be called once the stream
// is no longer needed — including when the consumer abandons it early (e.g.
// the sort failed) — and is idempotent.
func (t *TransformReader) Close() error {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	// Drain order so the producer's buffered sends never pin memory, then
	// join every goroutine.
	go func() {
		for range t.order {
		}
	}()
	t.wg.Wait()
	return nil
}
