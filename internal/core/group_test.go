package core

import "testing"

func TestGroupMapping(t *testing.T) {
	g := NewGroup(1, []int{5, 2, 9, 0})
	if len(g.Nodes) != 4 {
		t.Fatalf("size = %d", len(g.Nodes))
	}
	if g.NodeOf(2) != 9 || g.NodeOf(0) != 5 {
		t.Fatal("NodeOf wrong")
	}
	if r, ok := g.RankOf(0); !ok || r != 3 {
		t.Fatalf("RankOf(0) = %d, %v", r, ok)
	}
	if _, ok := g.RankOf(7); ok {
		t.Fatal("RankOf accepted non-member")
	}
}

func TestGroupGuards(t *testing.T) {
	for name, fn := range map[string]func(){
		"dup node":   func() { NewGroup(0, []int{1, 1}) },
		"nodeof neg": func() { NewGroup(0, []int{1, 2}).NodeOf(-1) },
		"nodeof oob": func() { NewGroup(0, []int{1, 2}).NodeOf(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGroupNodesIsolated(t *testing.T) {
	nodes := []int{0, 1, 2}
	g := NewGroup(0, nodes)
	nodes[0] = 99
	if g.NodeOf(0) != 0 {
		t.Fatal("group aliases caller's slice")
	}
}
