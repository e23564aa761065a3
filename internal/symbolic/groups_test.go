package symbolic

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestGroupByModesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 500
	keys := make([][]int32, 4)
	for m := range keys {
		keys[m] = make([]int32, n)
		for i := range keys[m] {
			keys[m][i] = int32(rng.Intn(6))
		}
	}
	for _, modes := range [][]int{{0}, {1, 3}, {0, 1, 2}, {0, 1, 2, 3}} {
		g := GroupByModes(keys, n, modes, nil)
		if len(g.Modes) != len(modes) {
			t.Fatalf("modes %v: stored %v", modes, g.Modes)
		}
		// Every entry appears exactly once.
		seen := make([]bool, n)
		for gi := 0; gi < g.NumGroups(); gi++ {
			ids := g.Group(gi)
			if len(ids) == 0 {
				t.Fatalf("modes %v: empty group %d", modes, gi)
			}
			for j, id := range ids {
				if seen[id] {
					t.Fatalf("modes %v: entry %d duplicated", modes, id)
				}
				seen[id] = true
				// Ids ascend within a group; all share the group key.
				if j > 0 && ids[j-1] >= id {
					t.Fatalf("modes %v group %d: ids not ascending", modes, gi)
				}
				for c, m := range modes {
					if keys[m][id] != g.Keys[c][gi] {
						t.Fatalf("modes %v group %d: entry %d key mismatch in mode %d", modes, gi, id, m)
					}
				}
			}
			// Groups ascend lexicographically.
			if gi > 0 {
				less := false
				for c := range modes {
					if g.Keys[c][gi-1] != g.Keys[c][gi] {
						less = g.Keys[c][gi-1] < g.Keys[c][gi]
						break
					}
				}
				if !less {
					t.Fatalf("modes %v: groups %d,%d not in lexicographic order", modes, gi-1, gi)
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("modes %v: entry %d missing", modes, id)
			}
		}
	}
}

func TestGroupByModesSingletons(t *testing.T) {
	// Distinct keys: every group is a singleton in input-sorted order.
	keys := [][]int32{{3, 1, 2, 0}}
	g := GroupByModes(keys, 4, []int{0}, nil)
	if g.NumGroups() != 4 {
		t.Fatalf("%d groups", g.NumGroups())
	}
	wantKeys := []int32{0, 1, 2, 3}
	wantIds := []int32{3, 1, 2, 0}
	for i := 0; i < 4; i++ {
		if g.Keys[0][i] != wantKeys[i] || g.Group(i)[0] != wantIds[i] {
			t.Fatalf("group %d: key %d id %d", i, g.Keys[0][i], g.Group(i)[0])
		}
	}
}

// A scratch threaded through many calls (as one dimension-tree build
// does) must leave no trace in the results, and the result arrays are
// sized for the groups found, not for the entries scanned.
func TestGroupByModesScratchAndExactSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := &GroupScratch{}
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(300)
		keys := make([][]int32, 4)
		for m := range keys {
			keys[m] = make([]int32, n)
			for i := range keys[m] {
				keys[m][i] = int32(rng.Intn(1 + trial%7*40))
			}
		}
		for _, modes := range [][]int{{}, {2}, {0, 3}, {1, 2, 3}, {0, 1, 2, 3}} {
			want := GroupByModes(keys, n, modes, nil)
			got := GroupByModes(keys, n, modes, sc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d modes %v: scratch run differs from a fresh one", trial, modes)
			}
			if cap(got.Ptr) != got.NumGroups()+1 || len(got.Ids) != n || cap(got.Ids) != n {
				t.Fatalf("trial %d modes %v: Ptr cap %d for %d groups, Ids cap %d for %d entries",
					trial, modes, cap(got.Ptr), got.NumGroups(), cap(got.Ids), n)
			}
			for c := range got.Keys {
				if cap(got.Keys[c]) != got.NumGroups() {
					t.Fatalf("trial %d modes %v: Keys[%d] cap %d for %d groups", trial, modes, c, cap(got.Keys[c]), got.NumGroups())
				}
			}
		}
	}
}
