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
	if len(tables) != 3 {
		t.Fatalf("got %d ablation tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("ablation %s has no rows", tb.ID)
		}
	}
}
