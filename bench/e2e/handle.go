package main

import (
	"fmt"

	coconut "github.com/coconut-db/coconut"
)

// handle is the open index of whichever variant the workload uses; exactly
// one field is set. It is the direct target of the clients.
type handle struct {
	tree *coconut.TreeIndex
	trie *coconut.TrieIndex
	lsm  *coconut.LSMIndex
}

func buildIndex(variant string, cfg coconut.Config) (*handle, error) {
	var h handle
	var err error
	switch variant {
	case "tree":
		h.tree, err = coconut.BuildTreeIndex(cfg)
	case "trie":
		h.trie, err = coconut.BuildTrieIndex(cfg)
	case "lsm":
		h.lsm, err = coconut.BuildLSMIndex(cfg)
	default:
		err = fmt.Errorf("unknown variant %q", variant)
	}
	if err != nil {
		return nil, err
	}
	return &h, nil
}

func openIndex(variant string, cfg coconut.Config) (*handle, error) {
	var h handle
	var err error
	switch variant {
	case "tree":
		h.tree, err = coconut.OpenTreeIndex(cfg)
	case "trie":
		h.trie, err = coconut.OpenTrieIndex(cfg)
	case "lsm":
		h.lsm, err = coconut.OpenLSMIndex(cfg)
	default:
		err = fmt.Errorf("unknown variant %q", variant)
	}
	if err != nil {
		return nil, err
	}
	return &h, nil
}

func (h *handle) exact(q *query) (coconut.Result, error) {
	switch {
	case h.tree != nil:
		return h.tree.Search(q.s)
	case h.trie != nil:
		return h.trie.Search(q.s)
	}
	return h.lsm.Search(q.s)
}

func (h *handle) approx(q *query) (coconut.Result, error) {
	switch {
	case h.tree != nil:
		return h.tree.SearchApprox(q.s, approxRadius)
	case h.trie != nil:
		return h.trie.SearchApprox(q.s, approxRadius)
	}
	return h.lsm.SearchApprox(q.s)
}

// close is safe on a nil or already closed handle: Close is idempotent on
// every variant.
func (h *handle) close() error {
	switch {
	case h == nil:
		return nil
	case h.tree != nil:
		return h.tree.Close()
	case h.trie != nil:
		return h.trie.Close()
	}
	return h.lsm.Close()
}

func (h *handle) cacheStats() coconut.CacheStats {
	if h.lsm != nil {
		return h.lsm.CacheStats()
	}
	return coconut.CacheStats{}
}

// describe adds the structure counters the variant exposes.
func (h *handle) describe(m map[string]float64) {
	switch {
	case h.tree != nil:
		m["core.leaves"], m["core.leaf_fill"] = float64(h.tree.NumLeaves()), h.tree.LeafFill()
	case h.trie != nil:
		m["core.leaves"], m["core.leaf_fill"] = float64(h.trie.NumLeaves()), h.trie.LeafFill()
	}
}
