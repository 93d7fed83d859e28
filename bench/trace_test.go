package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},       // nested child
		{Name: "a.inner", Start: 15, End: 25, Parent: 1}, // grandchild: charged to a, not to root
		{Name: "b", Start: 30, End: 60, Parent: 0},       // overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 0},      // sticks out of the parent by 30
		{Name: "d", Start: 45, End: 50, Parent: 0},       // entirely inside b
		{Name: "lone", Start: 200, End: 250, Parent: -1},
	}
	self := selfTimes(spans)
	// root: 100 minus union([10,60] ∪ [90,100]) = 100 - 60 = 40.
	want := []int64{40, 20, 10, 30, 40, 5, 50}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	byName := selfByName(append(spans, span{Name: "lone", Start: 300, End: 310, Parent: -1}))
	if byName["lone"] != 60 {
		t.Errorf("self time summed by name = %d, want 60", byName["lone"])
	}
}

func TestSelfTimeIgnoresADanglingParent(t *testing.T) {
	self := selfTimes([]span{{Name: "orphan", Start: 5, End: 9, Parent: 7}})
	if self[0] != 4 {
		t.Errorf("self time = %d, want 4", self[0])
	}
}

func TestNilTracerIsTracingOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("anything", -1, 1)
	tr.end(id)
	if id != -1 || tr.count() != 0 {
		t.Errorf("nil tracer recorded a span: id %d count %d", id, tr.count())
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("stage", -1, 0)
	child := tr.begin("call", root, 42)
	tr.end(child)
	tr.end(root)
	if tr.count() != 2 {
		t.Fatalf("recorded %d spans, want 2", tr.count())
	}
	got := tr.spans[child]
	if got.Parent != root || got.Op != 42 || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
	if tr.spans[root].End < got.End {
		t.Errorf("parent ended at %d, before its child at %d", tr.spans[root].End, got.End)
	}
}
