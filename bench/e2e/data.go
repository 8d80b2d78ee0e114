package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	coconut "github.com/coconut-db/coconut"
)

const recBytes = seriesLen * 8 // one raw series on disk

// inputs is everything a run derives from -seed. The program under test sees
// only the generated files and query series, never the seed.
type inputs struct {
	dataFile   string // the series bulk-loaded
	streamFile string // stream_lsm: the series inserted afterwards
	exactQ     []coconut.Series
	approxQ    []coconut.Series
	ingestQ    []coconut.Series // stream_lsm: one exact query per ingest query group
}

// Seed offsets keep dataset, stream and query lists independent draws.
const (
	seedData = iota * 1_000_003
	seedStream
	seedExact
	seedApprox
	seedIngest
)

func generate(fs coconut.Storage, sp spec, sh shape, seed int64) (*inputs, error) {
	kind := coconut.DatasetKind(sp.Kind)
	in := &inputs{dataFile: "data.bin"}
	bulk := sp.N
	if sp.Bulk > 0 {
		bulk = sp.Bulk
	}
	if err := coconut.GenerateDataset(fs, in.dataFile, kind, bulk, seriesLen, seed+seedData); err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	var err error
	if sp.Bulk > 0 {
		in.streamFile = "stream.bin"
		if err = coconut.GenerateDataset(fs, in.streamFile, kind, sp.N-sp.Bulk, seriesLen, seed+seedStream); err != nil {
			return nil, fmt.Errorf("generating stream: %w", err)
		}
		groups := (sp.N - sp.Bulk) / sp.Batch / sp.QueryEvery
		if in.ingestQ, err = coconut.GenerateQueries(kind, groups, seriesLen, seed+seedIngest); err != nil {
			return nil, err
		}
	}
	if in.exactQ, err = coconut.GenerateQueries(kind, sh.ExactQ, seriesLen, seed+seedExact); err != nil {
		return nil, err
	}
	if in.approxQ, err = coconut.GenerateQueries(kind, sh.ApproxQ, seriesLen, seed+seedApprox); err != nil {
		return nil, err
	}
	return in, nil
}

// answer is a brute-force nearest neighbour.
type answer struct {
	pos  int64
	dist float64
}

// oracleQuery asks for the nearest neighbour among positions below limit,
// which is how the queries asked in the middle of the ingest are checked.
type oracleQuery struct {
	q     coconut.Series
	limit int64
}

// bruteForce reads the raw files once, in order, and returns each query's true
// nearest neighbour. It shares no code with the program under test: the
// distance loop below is the textbook one with an early exit.
func bruteForce(dir string, files []string, qs []oracleQuery) ([]answer, error) {
	best := make([]answer, len(qs))
	for i := range best {
		best[i] = answer{pos: -1, dist: math.Inf(1)} // dist holds the square until the end
	}
	const chunk = 512
	raw := make([]byte, chunk*recBytes)
	vals := make([]float64, chunk*seriesLen)
	var base int64
	for _, name := range files {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		r := bufio.NewReaderSize(f, 1<<20)
		for {
			n, err := io.ReadFull(r, raw)
			if n%recBytes != 0 {
				f.Close()
				return nil, fmt.Errorf("oracle: %s ends inside a series", name)
			}
			cnt := n / recBytes
			decodeInto(raw, vals[:cnt*seriesLen])
			// The queries split across the two cores; each owns its
			// slots of best, so no lock is needed.
			var wg sync.WaitGroup
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for qi := w; qi < len(qs); qi += procs {
						b := &best[qi]
						for s := 0; s < cnt; s++ {
							pos := base + int64(s)
							if pos >= qs[qi].limit {
								break
							}
							if d := sqDist(qs[qi].q, vals[s*seriesLen:(s+1)*seriesLen], b.dist); d < b.dist {
								b.pos, b.dist = pos, d
							}
						}
					}
				}(w)
			}
			wg.Wait()
			base += int64(cnt)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, err
			}
		}
		f.Close()
	}
	for i := range best {
		if best[i].pos < 0 {
			return nil, fmt.Errorf("oracle: query %d saw no series", i)
		}
		best[i].dist = math.Sqrt(best[i].dist)
	}
	return best, nil
}

// sqDist is the squared Euclidean distance, given up once it passes limit.
func sqDist(a, b []float64, limit float64) float64 {
	var s float64
	for i := 0; i < len(a); i += 16 {
		for j := i; j < i+16 && j < len(a); j++ {
			d := a[j] - b[j]
			s += d * d
		}
		if s >= limit {
			return s
		}
	}
	return s
}

// readSeries fetches series pos of the raw files, for checking that an
// approximate answer names a real series at the distance it reports.
func readSeries(f *os.File, pos int64, buf []byte, out []float64) error {
	if _, err := f.ReadAt(buf[:recBytes], pos*recBytes); err != nil {
		return err
	}
	decodeInto(buf, out)
	return nil
}

// decodeInto parses len(dst) little-endian float64s, the raw file format.
func decodeInto(src []byte, dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// loadSeries reads count series starting at series from from a raw file.
func loadSeries(path string, from, count int) ([]coconut.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw := make([]byte, count*recBytes)
	if _, err := f.ReadAt(raw, int64(from)*recBytes); err != nil {
		return nil, err
	}
	flat := make([]float64, count*seriesLen)
	decodeInto(raw, flat)
	out := make([]coconut.Series, count)
	for i := range out {
		out[i] = flat[i*seriesLen : (i+1)*seriesLen]
	}
	return out, nil
}

// copyFile gives each stream_lsm cycle its own raw file to append to.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
