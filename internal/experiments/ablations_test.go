package experiments

import "testing"

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	tables, err := Ablations(tinyScale())
	if err != nil {
		t.Fatalf("ablation failed after %d tables: %v", len(tables), err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d ablation tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("ablation %s has no rows", tb.ID)
		}
	}
}

// TestAblationFillFactorMatchesParent: the fill-factor ablation's leaf
// counts before and after its insert batch are the ones the tree had when
// its leaves were pages of a B+-tree file, split in place.
func TestAblationFillFactorMatchesParent(t *testing.T) {
	tb, err := AblationFillFactor(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{"1.0": {"40", "80"}, "0.9": {"45", "87"}, "0.7": {"58", "58"}, "0.5": {"80", "80"}}
	for _, row := range tb.Rows {
		if w := want[row[0]]; row[1] != w[0] || row[4] != w[1] {
			t.Fatalf("fill factor %s: %s leaves, %s after the inserts; the B+-tree had %s and %s", row[0], row[1], row[4], w[0], w[1])
		}
		delete(want, row[0])
	}
	if len(want) != 0 {
		t.Fatalf("rows missing for fill factors %v", want)
	}
}
