package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps the full-suite integration test fast.
func tinyScale() Scale {
	return Scale{
		SeriesLen: 64,
		Segments:  8,
		CardBits:  8,
		LeafCap:   32,
		BaseCount: 600,
		Queries:   4,
		Seed:      42,
	}
}

func TestAllFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	tables, err := All(tinyScale())
	if err != nil {
		t.Fatalf("experiment failed after %d tables: %v", len(tables), err)
	}
	wantIDs := []string{
		"Fig7", "Fig8a", "Fig8b", "Fig8c", "Fig8d", "Fig8e", "Fig8f",
		"Fig9a", "Fig9b", "Fig9c", "Fig9d", "Fig9e", "Fig9f",
		"Fig10a", "Fig10b", "Fig10c", "SizeTable",
	}
	if len(tables) != len(wantIDs) {
		t.Fatalf("got %d tables, want %d", len(tables), len(wantIDs))
	}
	for i, tb := range tables {
		if tb.ID != wantIDs[i] {
			t.Errorf("table %d id = %s, want %s", i, tb.ID, wantIDs[i])
		}
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.ID)
		}
		var buf bytes.Buffer
		tb.Print(&buf)
		if !strings.Contains(buf.String(), tb.ID) {
			t.Errorf("printed table missing ID header")
		}
	}
}

// parse "12.3ms" back to a float for shape assertions.
func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		t.Fatalf("bad ms cell %q: %v", s, err)
	}
	return v
}

func TestFig8cShape(t *testing.T) {
	// The load-bearing claim of §3.2: sorted bottom-up leaves are nearly
	// full (a Coconut-Tree's are its run's checksum blocks, full by
	// construction), prefix-split leaves nearly empty, and the materialized
	// prefix index is much larger than the materialized Coconut index.
	tb, err := Fig8cSpace(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]string{}
	for _, row := range tb.Rows {
		cells[row[0]] = row
	}
	fill := func(name string) float64 {
		row, ok := cells[name]
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("bad fill cell %q", row[4])
		}
		return v
	}
	size := func(name string) float64 {
		row := cells[name]
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "MB"), 64)
		if err != nil {
			t.Fatalf("bad size cell %q", row[1])
		}
		return v
	}
	if fill("Coconut-Tree-Full") < 2*fill("ADSFull") {
		t.Errorf("Coconut fill (%v%%) should dwarf prefix-split fill (%v%%)",
			fill("Coconut-Tree-Full"), fill("ADSFull"))
	}
	if size("Coconut-Tree-Full") >= size("ADSFull") {
		t.Errorf("materialized Coconut-Tree (%vMB) should be smaller than ADSFull (%vMB)",
			size("Coconut-Tree-Full"), size("ADSFull"))
	}
	if size("Coconut-Tree") >= size("Coconut-Tree-Full") {
		t.Error("non-materialized index should be far smaller than materialized")
	}
}

func TestFig9dShape(t *testing.T) {
	// Approximate answers from Coconut with radius 10 must beat radius 0,
	// and the radius-10 answers should win against ADSFull for most
	// queries (paper: 94%).
	sc := tinyScale()
	sc.Queries = 10
	tb, err := Fig9dApproxQuality(sc)
	if err != nil {
		t.Fatal(err)
	}
	var r0, r10 float64
	for _, row := range tb.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		switch row[0] {
		case "CTree(r=0)":
			r0 = v
		case "CTree(r=10)":
			r10 = v
		}
	}
	if r10 > r0+1e-9 {
		t.Errorf("radius 10 mean ED %v should not exceed radius 0 %v", r10, r0)
	}
}

func TestCostModelArithmetic(t *testing.T) {
	c := Cost{Wall: time.Millisecond, Sim: 2 * time.Millisecond}
	if c.Total() != 3*time.Millisecond {
		t.Fatalf("Total = %v", c.Total())
	}
	if !strings.Contains(c.String(), "io=") {
		t.Fatal("Cost.String missing io field")
	}
}

func TestScaleHelpers(t *testing.T) {
	sc := DefaultScale()
	if sc.RawBytes(10) != int64(10*sc.SeriesLen*8) {
		t.Fatal("RawBytes wrong")
	}
	if _, err := sc.summarizer(); err != nil {
		t.Fatal(err)
	}
	full := FullScale()
	if full.BaseCount <= sc.BaseCount {
		t.Fatal("FullScale should be bigger")
	}
}
