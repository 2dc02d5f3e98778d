package main

import (
	"context"
	"math"
	"testing"
)

// TestYardstickReadings checks that a reading spans the gap since the
// previous one, and that the job is the same job every time.
func TestYardstickReadings(t *testing.T) {
	y, err := newYardstick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := y.last
	got, err := y.read(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(y.all) != 2 || first <= 0 || y.last <= 0 {
		t.Fatalf("readings %v", y.all)
	}
	if want := (first + y.last) / 2; math.Abs(got-want) > 1e-12 {
		t.Errorf("read returned %g, the mean of %g and %g is %g", got, first, y.last, want)
	}
	if a, b := yardstickWork(2000), yardstickWork(2000); a != b || a == 0 {
		t.Errorf("yardstick job gave %d, then %d", a, b)
	}
}

func TestAtRef(t *testing.T) {
	if got := atRef(3, 1); got != 3 {
		t.Errorf("atRef(3, 1) = %g at the reference speed", got)
	}
	if slow, fast := atRef(3, 1.5), atRef(3, 0.8); !(slow < 3 && fast > 3) {
		t.Errorf("atRef(3, 1.5) = %g, atRef(3, 0.8) = %g: a slow box must shorten, a fast one lengthen", slow, fast)
	}
}
