package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccBasics(t *testing.T) {
	var a Acc
	if a.N() != 0 || a.Mean() != 0 || a.Var() != 0 || a.CI95() != 0 || a.SE() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("mean = %v", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance
	// = 32/7.
	if math.Abs(a.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v", a.Var())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
	if a.CI95() <= 0 {
		t.Fatal("CI must be positive with spread")
	}
}

func TestAccSingleSample(t *testing.T) {
	var a Acc
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Var() != 0 || a.CI95() != 0 {
		t.Fatal("single-sample stats wrong")
	}
	if a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("single-sample min/max wrong")
	}
}

// Property: Welford matches the two-pass formulas.
func TestAccMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var a Acc
		var sum float64
		for _, v := range raw {
			a.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		wantVar := ss / float64(len(raw)-1)
		return math.Abs(a.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(a.Var()-wantVar) < 1e-6*(1+wantVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCrit(t *testing.T) {
	if !math.IsNaN(tCrit95(0)) {
		t.Fatal("df=0 must be NaN")
	}
	cases := map[int]float64{1: 12.706, 5: 2.571, 10: 2.228, 29: 2.045}
	for df, want := range cases {
		if got := tCrit95(df); got != want {
			t.Fatalf("t(%d) = %v, want %v", df, got, want)
		}
	}
	// Large df approaches the normal quantile from above.
	if got := tCrit95(1000); got < 1.960 || got > 1.97 {
		t.Fatalf("t(1000) = %v", got)
	}
	if tCrit95(30) >= tCrit95(29) {
		t.Fatal("t must decrease in df")
	}
}

func TestCI95Coverage(t *testing.T) {
	// Sanity: for a known sample the CI equals t * s/sqrt(n).
	var a Acc
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	want := 2.776 * a.Std() / math.Sqrt(5)
	if math.Abs(a.CI95()-want) > 1e-12 {
		t.Fatalf("ci = %v, want %v", a.CI95(), want)
	}
}

func TestAccString(t *testing.T) {
	var a Acc
	a.Add(1)
	a.Add(3)
	s := a.String()
	if !strings.Contains(s, "n=2") || !strings.Contains(s, "2") {
		t.Fatalf("String = %q", s)
	}
}
