package summary

import "io"

// Merged is the k-way merge, under the record order (CompareRecords), of
// sorted record streams, computed as it is read: the one merge of sorted
// records — an external sort's runs and the sorted parts of its one chunk,
// an LSM flush's memtable pieces, a compaction's runs.
type Merged struct {
	// h is the merge's heap of sources, least head first.
	h []*mergeSrc
	// left is the number of records not read yet.
	left int64
	err  error
}

// MergeBatch is how many records Merge reads from a source at a time, into
// a buffer of its own, unless the source is a *SliceReader.
const MergeBatch = 128

// mergeSrc is one sorted source of a merge and head its next record.
type mergeSrc struct {
	head Record
	// recs are the source's records after head that are in memory: all of a
	// slice's, or the rest of the last batch read from r (nil for a slice)
	// into buf.
	recs []Record
	r    RecordReader
	buf  []Record
}

// advance moves head to the source's next record and reports whether there
// was one.
func (s *mergeSrc) advance() (bool, error) {
	if len(s.recs) == 0 {
		if s.r == nil {
			return false, nil
		}
		n, err := s.r.Read(s.buf)
		if n == 0 {
			if err == io.EOF {
				err = nil
			}
			return false, err
		}
		s.recs = s.buf[:n]
	}
	s.head, s.recs = s.recs[0], s.recs[1:]
	return true, nil
}

// Merge returns the merge of srcs, each sorted under the record order; its
// Len is the sum of theirs. A *SliceReader source is merged in place, and
// reads as consumed at once; any other is read MergeBatch records at a
// time.
// The first record of every source is read here, and a failure to read it is
// returned.
func Merge(srcs ...RecordReader) (*Merged, error) {
	m := &Merged{}
	for _, r := range srcs {
		m.left += int64(r.Len())
		s := &mergeSrc{}
		if sl, ok := r.(*SliceReader); ok {
			s.recs, *sl = *sl, nil
		} else {
			s.r, s.buf = r, make([]Record, MergeBatch)
		}
		ok, err := s.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			m.h = append(m.h, s)
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

// down restores the heap below position i.
func (m *Merged) down(i int) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && CompareRecords(h[c+1].head, h[c].head) < 0 {
			c++
		}
		if CompareRecords(h[c].head, h[i].head) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop advances past the head record.
func (m *Merged) pop() {
	ok, err := m.h[0].advance()
	if m.err = err; err != nil {
		return
	}
	if !ok {
		last := len(m.h) - 1
		m.h[0], m.h = m.h[last], m.h[:last]
	}
	m.down(0)
}

// Read reads the next records of the merge.
func (m *Merged) Read(p []Record) (int, error) { return m.readWhile(p, nil) }

// Len is the number of records not read yet.
func (m *Merged) Len() int { return int(m.left) }

// readWhile reads like Read, but ends the stream — io.EOF — at the first
// record keep rejects, which stays next. A nil keep takes every record.
func (m *Merged) readWhile(p []Record, keep func(Record) bool) (int, error) {
	n := 0
	for n < len(p) && m.err == nil && len(m.h) > 0 {
		rec := m.h[0].head
		if keep != nil && !keep(rec) {
			break
		}
		p[n] = rec
		n++
		m.pop()
	}
	m.left -= int64(n)
	switch {
	case n > 0:
		return n, nil
	case m.err != nil:
		return 0, m.err
	}
	return 0, io.EOF
}

// While returns the merge's records up to the first one keep rejects, as a
// stream of its own whose Len is n, what its reader expects it to hold: it
// ends there, and the record keep rejected is the next one m, or another
// While of m, reads.
func (m *Merged) While(keep func(Record) bool, n int) RecordReader {
	return while{m, keep, n}
}

type while struct {
	m    *Merged
	keep func(Record) bool
	n    int
}

func (w while) Read(p []Record) (int, error) { return w.m.readWhile(p, w.keep) }
func (w while) Len() int                     { return w.n }
