package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/coconut-db/coconut/internal/storage"
)

// Meta file layout (little-endian):
//
//	magic      uint32  "BPT1"
//	recordSize uint32
//	keyLen     uint32
//	leafCap    uint32
//	fanout     uint32
//	count      uint64
//	nextPage   uint64
//	numLeaves  uint64
//	then per leaf in chain order:
//	  id  uint64 | count uint32 | sep [keyLen]byte
const metaMagic uint32 = 0x42505431

// Save persists the tree's metadata and leaf directory so the index can be
// reopened without rebuilding. The internal levels are reconstructed from
// the leaf separators on Open (the paper keeps internal nodes in memory;
// persisting the directory is what makes the on-disk index self-contained).
func (t *Tree) Save() error {
	if err := t.flushCache(); err != nil {
		return err
	}
	// The meta (and the manifest committed after it) describe the leaf
	// file's contents; fsync the leaves before either references them.
	if err := t.f.Sync(); err != nil {
		return err
	}
	size := 4*5 + 8*3 + len(t.leafDir)*(8+4+t.cfg.KeyLen)
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, metaMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.RecordSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.KeyLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.LeafCap))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.cfg.Fanout))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.nextPage))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.leafDir)))
	for _, id := range t.leafDir {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.leafCnt[id]))
		sep := t.leafSep[id]
		if len(sep) != t.cfg.KeyLen {
			return fmt.Errorf("bptree: missing separator for leaf %d", id)
		}
		buf = append(buf, sep...)
	}
	// Atomic commit: a crash mid-save must leave the previous meta file
	// readable, never a torn one.
	return storage.WriteFileAtomic(t.cfg.FS, t.cfg.metaFileName(), buf)
}

// Geometry is the persisted shape of a tree, exposed so the index manifest
// can record it and cross-check it on reopen.
type Geometry struct {
	RecordSize int
	KeyLen     int
	LeafCap    int
	Fanout     int
	NumLeaves  int
	NextPage   int64
	Count      int64
}

// Geometry returns the tree's current shape.
func (t *Tree) Geometry() Geometry {
	return Geometry{
		RecordSize: t.cfg.RecordSize,
		KeyLen:     t.cfg.KeyLen,
		LeafCap:    t.cfg.LeafCap,
		Fanout:     t.cfg.Fanout,
		NumLeaves:  len(t.leafDir),
		NextPage:   t.nextPage,
		Count:      t.count,
	}
}

// Open loads a previously saved tree. cfg.FS and cfg.Name locate the files;
// the remaining parameters are restored from the meta file.
func Open(cfg Config) (*Tree, error) {
	if cfg.FS == nil || cfg.Name == "" {
		return nil, errors.New("bptree: open needs FS and Name")
	}
	buf, err := storage.ReadFileAll(cfg.FS, cfg.metaFileName())
	if err != nil {
		return nil, err
	}
	if len(buf) < 4*5+8*3 {
		return nil, errors.New("bptree: meta file too short")
	}
	off := 0
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(buf[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(buf[off:]); off += 8; return v }
	if u32() != metaMagic {
		return nil, errors.New("bptree: bad magic")
	}
	cfg.RecordSize = int(u32())
	cfg.KeyLen = int(u32())
	cfg.LeafCap = int(u32())
	cfg.Fanout = int(u32())
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	count := int64(u64())
	nextPage := int64(u64())
	numLeaves := int(u64())
	need := off + numLeaves*(8+4+cfg.KeyLen)
	if len(buf) < need {
		return nil, errors.New("bptree: meta file truncated")
	}

	inner, err := cfg.FS.Open(cfg.leafFileName())
	if err != nil {
		return nil, err
	}
	f, err := storage.OpenChecksumFile(inner)
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("bptree: open %q: %w: %w", cfg.leafFileName(), ErrCorruptPage, err)
	}
	t := &Tree{
		cfg: cfg, f: f, count: count, nextPage: nextPage,
		leafCnt:   make(map[int64]int, numLeaves),
		leafSep:   make(map[int64][]byte, numLeaves),
		cachePage: -1,
	}
	t.initPagePool()
	firstKeys := make([][]byte, 0, numLeaves)
	for i := 0; i < numLeaves; i++ {
		id := int64(u64())
		cnt := int(u32())
		sep := make([]byte, cfg.KeyLen)
		copy(sep, buf[off:off+cfg.KeyLen])
		off += cfg.KeyLen
		t.leafDir = append(t.leafDir, id)
		t.leafCnt[id] = cnt
		t.leafSep[id] = sep
		firstKeys = append(firstKeys, sep)
	}
	t.buildInternal(firstKeys)
	return t, nil
}

// MetaSizeBytes returns the size of the persisted meta file (0 before Save).
func (t *Tree) MetaSizeBytes() int64 {
	f, err := t.cfg.FS.Open(t.cfg.metaFileName())
	if err != nil {
		return 0
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return 0
	}
	return size
}
