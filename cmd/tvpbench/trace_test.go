package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: rootName, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
		{ID: 6, Name: "side", Start: 0, End: 500}, // not part of an op
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 500} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}

	layers, opTime := layerTimes(spans)
	if opTime != 100 {
		t.Errorf("op time %d, want 100", opTime)
	}
	if layers["side"] != 0 {
		t.Errorf("a span outside any op counted towards op time")
	}
	if layers[rootName] != 40 || layers["a"] != 25 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", 0, 1)
	tr.end(s)
	if s.ID != 0 {
		t.Errorf("nil tracer opened span %d", s.ID)
	}
}
