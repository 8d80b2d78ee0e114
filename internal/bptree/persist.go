package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/coconut-db/coconut/internal/manifest"
	"github.com/coconut-db/coconut/internal/storage"
)

// Meta file layout (little-endian):
//
//	magic      uint32  "BPT2"
//	recordSize uint32
//	keyLen     uint32
//	leafCap    uint32
//	fanout     uint32
//	count      uint64
//	nextPage   uint64
//	numLeaves  uint64
//	then per leaf in chain order:
//	  id  uint64 | count uint32 | sep [keyLen]byte
//	crc        uint32  CRC-32C of every byte before it
//
// The trailer is the file's one integrity layer: Open checks the length
// and the CRC before it parses any field. "BPT1" metas had no trailer.
const (
	metaMagic    uint32 = 0x42505432
	metaMagicV1  uint32 = 0x42505431
	metaHeader          = 4*5 + 8*3
	metaCRCBytes        = 4
)

var metaCRCTable = crc32.MakeTable(crc32.Castagnoli)

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
	size := metaHeader + len(t.leafDir)*(8+4+t.cfg.KeyLen) + metaCRCBytes
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
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, metaCRCTable))
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

// leafEntry is one leaf of the persisted leaf directory.
type leafEntry struct {
	id  int64
	cnt int
	sep []byte
}

// decodeMeta verifies and parses a meta file's bytes, filling cfg's
// geometry. Every failure wraps ErrCorruptPage, except a "BPT1" meta,
// which fails with manifest.ErrVersionMismatch: the index predates the
// trailer and must be rebuilt.
func decodeMeta(cfg *Config, buf []byte) (count, nextPage int64, leaves []leafEntry, err error) {
	corrupt := func(what string) error {
		return fmt.Errorf("bptree: meta %q: %s: %w", cfg.metaFileName(), what, ErrCorruptPage)
	}
	if len(buf) >= 4 && binary.LittleEndian.Uint32(buf) == metaMagicV1 {
		return 0, 0, nil, fmt.Errorf("bptree: meta %q is format BPT1, this build reads BPT2 (rebuild the index): %w",
			cfg.metaFileName(), manifest.ErrVersionMismatch)
	}
	if len(buf) < metaHeader+metaCRCBytes {
		return 0, 0, nil, corrupt("file too short")
	}
	body := buf[:len(buf)-metaCRCBytes]
	if crc32.Checksum(body, metaCRCTable) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return 0, 0, nil, corrupt("checksum mismatch")
	}
	off := 0
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(body[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(body[off:]); off += 8; return v }
	if u32() != metaMagic {
		return 0, 0, nil, corrupt("bad magic")
	}
	cfg.RecordSize = int(u32())
	cfg.KeyLen = int(u32())
	cfg.LeafCap = int(u32())
	cfg.Fanout = int(u32())
	if err := cfg.validate(); err != nil {
		return 0, 0, nil, corrupt(err.Error())
	}
	count = int64(u64())
	nextPage = int64(u64())
	numLeaves := u64()
	entry := 8 + 4 + cfg.KeyLen
	rest := len(body) - off
	if numLeaves > uint64(rest/entry) || int(numLeaves)*entry != rest {
		return 0, 0, nil, corrupt(fmt.Sprintf("%d leaves do not fill the %d-byte directory", numLeaves, rest))
	}
	leaves = make([]leafEntry, numLeaves)
	for i := range leaves {
		leaves[i] = leafEntry{id: int64(u64()), cnt: int(u32()), sep: body[off : off+cfg.KeyLen : off+cfg.KeyLen]}
		off += cfg.KeyLen
	}
	return count, nextPage, leaves, nil
}

// VerifyMeta checks the meta file of the tree name on fs — length, CRC
// and directory shape, exactly what Open checks before it trusts a field —
// and returns the number of leaves it lists.
func VerifyMeta(fs storage.FS, name string) (int64, error) {
	cfg := Config{FS: fs, Name: name}
	buf, err := storage.ReadFileAll(fs, cfg.metaFileName())
	if err != nil {
		return 0, err
	}
	_, _, leaves, err := decodeMeta(&cfg, buf)
	return int64(len(leaves)), err
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
	count, nextPage, leaves, err := decodeMeta(&cfg, buf)
	if err != nil {
		return nil, err
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
		leafCnt:   make(map[int64]int, len(leaves)),
		leafSep:   make(map[int64][]byte, len(leaves)),
		cachePage: -1,
	}
	t.initPagePool()
	firstKeys := make([][]byte, 0, len(leaves))
	for _, l := range leaves {
		t.leafDir = append(t.leafDir, l.id)
		t.leafCnt[l.id] = l.cnt
		t.leafSep[l.id] = l.sep
		firstKeys = append(firstKeys, l.sep)
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
