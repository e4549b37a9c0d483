package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
// With fewer, the "percentile" is just the slowest few samples and moves
// with any one of them.
const minTail = 10

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// whether at least minTail samples rank beyond it. A tail
// percentile is only reported when ok is true.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-rank-1 >= minTail
}

// gmean returns the geometric mean of xs (all positive), or NaN for no
// samples. Over operations of different sizes, such as one flow per
// catalog program, it moves smoothly with every operation's time where the
// median jumps between neighbouring programs.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tally counts the operations a workload attempted and those that failed.
// Errors, refused requests and output mismatches all count as failures.
type tally struct {
	attempted, failed int
	logged            int
}

// maxLogged caps the failure lines written to stderr per run.
const maxLogged = 20

// add records one attempted operation; a non-nil err marks it failed.
func (t *tally) add(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.logged < maxLogged {
		t.logged++
		fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
	}
}

// failFrac is failed over attempted (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
