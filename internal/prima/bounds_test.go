package prima

import (
	"math"
	"testing"
)

func TestLambdaPrimeMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 50; k++ {
		l := LambdaPrime(1000, k, 0.5, 1)
		if l <= prev {
			t.Fatalf("LambdaPrime not increasing at k=%d: %v <= %v", k, l, prev)
		}
		prev = l
	}
}

func TestLambdaStarMonotoneInK(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 50; k++ {
		l := LambdaStar(1000, k, 0.5, 1)
		if l <= prev {
			t.Fatalf("LambdaStar not increasing at k=%d: %v <= %v", k, l, prev)
		}
		prev = l
	}
}

func TestLambdaStarDecreasesWithEps(t *testing.T) {
	if LambdaStar(1000, 10, 0.5, 1) <= LambdaStar(1000, 10, 1.0, 1) {
		t.Error("larger eps must need fewer samples")
	}
}

func TestEpsPrime(t *testing.T) {
	if math.Abs(EpsPrime(0.5)-math.Sqrt2/2) > 1e-12 {
		t.Errorf("EpsPrime(0.5) = %v", EpsPrime(0.5))
	}
}

func TestEllPlusLog2(t *testing.T) {
	got := EllPlusLog2(1, 100)
	want := 1 + math.Ln2/math.Log(100)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EllPlusLog2 = %v, want %v", got, want)
	}
}
