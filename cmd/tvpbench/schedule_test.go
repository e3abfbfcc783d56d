package main

import (
	"reflect"
	"testing"
)

func TestSchedulesDeterministic(t *testing.T) {
	if a, b := simPairs(highIPCPrograms, 7, 1), simPairs(highIPCPrograms, 7, 1); !reflect.DeepEqual(a, b) {
		t.Error("sim pairs differ for the same seed")
	}
	if a, b := simPairs(highIPCPrograms, 7, 1), simPairs(highIPCPrograms, 8, 1); reflect.DeepEqual(a, b) {
		t.Error("sim pairs equal for different seeds")
	}
	if a, b := roundOrder(7, 3, 40), roundOrder(7, 3, 40); !reflect.DeepEqual(a, b) {
		t.Error("round order differs for the same seed")
	}
	if a, b := roundOrder(7, 3, 40), roundOrder(8, 3, 40); reflect.DeepEqual(a, b) {
		t.Error("round order equal for different seeds")
	}
	if a, b := reportMembers(7), reportMembers(7); !reflect.DeepEqual(a, b) {
		t.Error("report members differ for the same seed")
	}

	a, b := newTVPDSchedule(7, 20, 1), newTVPDSchedule(7, 20, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("tvpd schedule differs for the same seed")
	}
	c := newTVPDSchedule(8, 20, 1)
	if reflect.DeepEqual(a.Reqs[0], c.Reqs[0]) || reflect.DeepEqual(a.Fixture, c.Fixture) {
		t.Error("tvpd schedule equal for different seeds")
	}
}

func TestTVPDScheduleShape(t *testing.T) {
	s := newTVPDSchedule(1, 20, 1)
	// 40/s over 20 s, plus the duplicates.
	if n := len(s.Reqs); n < 700 || n > 950 {
		t.Fatalf("%d requests in 20 s at 40/s", n)
	}
	kinds := map[string]int{}
	for i, r := range s.Reqs {
		kinds[r.Kind]++
		if i > 0 && r.Due < s.Reqs[i-1].Due {
			t.Fatalf("request %d due before its predecessor", i)
		}
		if r.Kind == kindDup && (s.Reqs[i-1].Point != r.Point || s.Reqs[i-1].Due != r.Due) {
			t.Fatalf("duplicate %d does not repeat the new request before it", i)
		}
	}
	n := float64(len(s.Reqs))
	for kind, share := range map[string]float64{kindMemory: 0.52, kindDisk: 0.19, kindNew: 0.24, kindDup: 0.05} {
		if got := float64(kinds[kind]) / n; got < share-0.05 || got > share+0.05 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
	if len(s.Fixture) != kinds[kindDisk] {
		t.Errorf("%d fixture points for %d disk requests", len(s.Fixture), kinds[kindDisk])
	}
	// The first half of a schedule is the schedule of half the length, so
	// a traced run's shorter phases replay a prefix of the golden run.
	half := newTVPDSchedule(1, 10, 1)
	if !reflect.DeepEqual(half.Reqs, s.Reqs[:len(half.Reqs)]) {
		t.Error("a shorter schedule is not a prefix of a longer one")
	}
}
