// Package stats is the statistical substrate of benchdiff's snapshot
// comparison: it decides whether two sets of repeated benchmark samples
// differ by more than noise.
//
// The suite's perf claims rest on latency measurements, and a single
// `go test -bench` run is an n=1 sample of a noisy distribution (scheduler
// jitter, cache state, thermal throttling). Comparing two n=1 numbers and
// calling the difference a speedup is exactly the methodological sin
// RT-Bench and RobotPerf warn against. This package implements the
// benchstat-style discipline instead: collect repeated samples per
// benchmark (`-count`), test the two sample sets with the Mann-Whitney U
// rank test (distribution-free, robust to the long right tails benchmark
// latencies have), and only call a delta real when it is both statistically
// significant (p < alpha) and larger than an explicit noise threshold.
//
// The U test is exact (full permutation distribution via dynamic
// programming) for small tie-free samples — the common `-count 5..20` case —
// and falls back to the normal approximation with tie correction and
// continuity correction otherwise, matching the classic treatment in
// Mann & Whitney (1947) and golang.org/x/perf.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of one sample set.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"` // sample standard deviation (n-1 denominator)
}

// Summarize computes descriptive statistics; an empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Median(xs)
	return s
}

// Median returns the sample median (mean of the two central order
// statistics for even n). The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// exactLimit bounds the sample sizes for which MannWhitney computes the
// exact permutation distribution; beyond it the normal approximation is
// already accurate to well under the alpha levels anyone uses.
const exactLimit = 25

// MannWhitney returns the two-sided p-value of the Mann-Whitney U test
// (Wilcoxon rank-sum) for the hypothesis that x and y are drawn from the
// same distribution. Tie-free samples with len ≤ exactLimit use the exact
// permutation distribution; larger or tied samples use the normal
// approximation with tie correction and continuity correction. Degenerate
// inputs that carry no evidence (a sample of n=1 vs m=1, or all values
// identical) return p = 1, so they can never flag.
func MannWhitney(x, y []float64) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 1, fmt.Errorf("stats: Mann-Whitney needs non-empty samples (n=%d, m=%d)", n, m)
	}

	ranks, tieSum, tied := rankAll(x, y)
	// Rank-sum of x, then U = W - n(n+1)/2.
	var w float64
	for i := 0; i < n; i++ {
		w += ranks[i]
	}
	u := w - float64(n*(n+1))/2

	if !tied && n <= exactLimit && m <= exactLimit {
		return exactP(int(math.Round(u)), n, m), nil
	}

	mean := float64(n) * float64(m) / 2
	nTot := float64(n + m)
	variance := float64(n) * float64(m) / 12 * (nTot + 1 - tieSum/(nTot*(nTot-1)))
	if variance <= 0 {
		// Every value tied with every other: no evidence of a difference.
		return 1, nil
	}
	// Continuity correction: shrink |U - mean| by 1/2.
	z := (math.Abs(u-mean) - 0.5) / math.Sqrt(variance)
	if z < 0 {
		z = 0
	}
	// Two-sided tail of the standard normal: 2*(1 - Phi(z)) = erfc(z/sqrt2).
	return math.Erfc(z / math.Sqrt2), nil
}

// rankAll assigns mid-ranks to the concatenation x||y and reports the tie
// correction term sum(t^3 - t) and whether any tie exists.
func rankAll(x, y []float64) (ranks []float64, tieSum float64, tied bool) {
	n := len(x) + len(y)
	all := make([]float64, 0, n)
	all = append(all, x...)
	all = append(all, y...)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return all[idx[a]] < all[idx[b]] })

	ranks = make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && all[idx[j+1]] == all[idx[i]] {
			j++
		}
		// Positions i..j (0-based) share the mid-rank.
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		if t := float64(j - i + 1); t > 1 {
			tied = true
			tieSum += t*t*t - t
		}
		i = j + 1
	}
	return ranks, tieSum, tied
}

// exactP computes the exact two-sided p-value of observing U statistic u
// for tie-free samples of sizes n and m, by counting rank-subset
// assignments with dynamic programming. The U distribution is symmetric
// about nm/2, so the two-sided p is twice the smaller tail, capped at 1.
func exactP(u, n, m int) float64 {
	// counts[j][s]: number of ways to choose j of the first i ranks with
	// U-contribution s. Using the standard recurrence on U directly:
	// c(i, j, s) = c(i-1, j, s) + c(i-1, j-1, s-(i-j)) where picking rank i
	// as the j-th chosen element contributes (i-j) pairs won against y.
	maxU := n * m
	counts := make([][]float64, n+1)
	for j := range counts {
		counts[j] = make([]float64, maxU+1)
	}
	counts[0][0] = 1
	for i := 1; i <= n+m; i++ {
		for j := min(i, n); j >= 1; j-- {
			c := i - j // U contribution of choosing element i as j-th pick
			if c > maxU {
				continue
			}
			row, prev := counts[j], counts[j-1]
			for s := maxU; s >= c; s-- {
				row[s] += prev[s-c]
			}
		}
	}
	var total, tail float64
	lo := u
	if maxU-u < lo {
		lo = maxU - u
	}
	for s, c := range counts[n] {
		total += c
		if s <= lo {
			tail += c
		}
	}
	p := 2 * tail / total
	if p > 1 {
		p = 1
	}
	return p
}

// Options configures Compare.
type Options struct {
	// Alpha is the significance level for the Mann-Whitney test
	// (default 0.05).
	Alpha float64
	// Threshold is the noise floor in percent: a delta smaller in
	// magnitude is never significant regardless of p (default 0).
	Threshold float64
}

func (o Options) alpha() float64 {
	if o.Alpha <= 0 {
		return 0.05
	}
	return o.Alpha
}

// Comparison is the verdict on one benchmark's old-vs-new sample sets.
// Delta and CI are percentages relative to the old median/mean; for
// latency-like metrics a positive Delta means the new code is slower.
type Comparison struct {
	Old Summary `json:"old"`
	New Summary `json:"new"`
	// Delta is the percent change of the median, new vs old.
	Delta float64 `json:"delta_pct"`
	// CI is the ± half-width, in percent of the old mean, of the 95%
	// confidence interval on the difference of means (Welch standard
	// error, t quantile). Zero when either side has n < 2.
	CI float64 `json:"ci_pct"`
	// P is the two-sided Mann-Whitney p-value.
	P float64 `json:"p"`
	// Significant reports P < alpha AND |Delta| ≥ threshold.
	Significant bool `json:"significant"`
}

// Compare runs the full benchstat-style comparison of two sample sets.
// Sample counts need not match. Samples of n=1 cannot reach significance:
// their permutation p-value is ≥ 2/(n+m choose n) ≥ 1/3 > any sane alpha.
func Compare(old, new []float64, opts Options) (Comparison, error) {
	if len(old) == 0 || len(new) == 0 {
		return Comparison{}, fmt.Errorf("stats: Compare needs non-empty samples (old n=%d, new n=%d)", len(old), len(new))
	}
	c := Comparison{Old: Summarize(old), New: Summarize(new)}
	if c.Old.Median != 0 {
		c.Delta = (c.New.Median - c.Old.Median) / math.Abs(c.Old.Median) * 100
	}
	p, err := MannWhitney(old, new)
	if err != nil {
		return c, err
	}
	c.P = p
	if c.Old.N > 1 && c.New.N > 1 && c.Old.Mean != 0 {
		se := math.Sqrt(c.Old.Stddev*c.Old.Stddev/float64(c.Old.N) +
			c.New.Stddev*c.New.Stddev/float64(c.New.N))
		c.CI = tQuantile975(welchDF(c.Old, c.New)) * se / math.Abs(c.Old.Mean) * 100
	}
	c.Significant = c.P < opts.alpha() && math.Abs(c.Delta) >= opts.Threshold
	return c, nil
}

// welchDF is the Welch–Satterthwaite effective degrees of freedom for the
// difference of the two sample means.
func welchDF(a, b Summary) float64 {
	va := a.Stddev * a.Stddev / float64(a.N)
	vb := b.Stddev * b.Stddev / float64(b.N)
	if va+vb == 0 {
		return float64(a.N + b.N - 2)
	}
	num := (va + vb) * (va + vb)
	den := va*va/float64(a.N-1) + vb*vb/float64(b.N-1)
	if den == 0 {
		return float64(a.N + b.N - 2)
	}
	return num / den
}

// t975 tabulates the 0.975 quantile of Student's t for df 1..30; larger df
// use the normal 1.96. Indexed by df-1.
var t975 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuantile975(df float64) float64 {
	if df < 1 {
		df = 1
	}
	i := int(df)
	if i > len(t975) {
		return 1.960
	}
	return t975[i-1]
}
