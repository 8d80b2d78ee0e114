package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/coconut-db/coconut/internal/dataset"
	"github.com/coconut-db/coconut/internal/summary"
)

// sliceBytes sums, in bytes, the length and the capacity of every slice v —
// a struct — holds in its fields and in the fields of the structs it embeds
// by value. Pointers and interfaces are not followed: what they reach is
// not the handle's own summary state.
func sliceBytes(v reflect.Value) (lenB, capB int64) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			size := int64(f.Type().Elem().Size())
			lenB += int64(f.Len()) * size
			capB += int64(f.Cap()) * size
		case reflect.Struct:
			l, c := sliceBytes(f)
			lenB, capB = lenB+l, capB+c
		}
	}
	return lenB, capB
}

// TestSIMSColumnBytes is the heap guard of the sorted summary array: after
// a build, after a reopen, and after a tree insert followed by a query, the
// tree's slices hold exactly Segments + 8 bytes a series, in length and in
// capacity: the symbol column and the positions, and nothing beside them. A key array
// kept next to the column would add 16 bytes a series and fail it.
func TestSIMSColumnBytes(t *testing.T) {
	ctx := context.Background()
	q := dataset.Queries(dataset.NewRandomWalk(), 1, tLen, 5)[0]
	for _, p := range []summary.Params{{SeriesLen: tLen, Segments: 16, CardBits: 8}, {SeriesLen: tLen, Segments: 32, CardBits: 4}} {
		s, err := summary.NewSummarizer(p)
		if err != nil {
			t.Fatal(err)
		}
		check := func(state string, ix any, n int) {
			t.Helper()
			lenB, capB := sliceBytes(reflect.ValueOf(ix).Elem())
			if want := int64(n) * int64(p.Segments+8); lenB != want || capB != want {
				t.Fatalf("%dx%d %s: %d series hold %d bytes (capacity %d), want %d", p.Segments, p.CardBits, state, n, lenB, capB, want)
			}
		}
		if _, capB := sliceBytes(reflect.ValueOf(struct {
			sims simsArray
			keys []summary.Key
		}{newSimsArray(s, 10), make([]summary.Key, 10)})); capB != 10*int64(p.Segments+8+summary.KeySize) {
			t.Fatalf("sliceBytes does not see a key array beside the column: %d bytes", capB)
		}

		fs, data := fixtureFS(t)
		opt := baseOptions(t, fs, false)
		opt.S = s
		tree, err := buildTree(opt)
		if err != nil {
			t.Fatal(err)
		}
		check("tree after build", tree.TreeIndex, tCount)
		if err := tree.Insert(ctx, data[:37]); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.ExactSearch(ctx, q, 1); err != nil {
			t.Fatal(err)
		}
		check("tree after insert and query", tree.TreeIndex, tCount+37)
		if err := tree.Close(); err != nil {
			t.Fatal(err)
		}
		if tree, err = openTree(opt); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.ExactSearch(ctx, q, 1); err != nil {
			t.Fatal(err)
		}
		check("tree after reopen", tree.TreeIndex, tCount+37)
		tree.Close()
	}
}
