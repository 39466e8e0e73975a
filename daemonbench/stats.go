package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of measurements in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (NaN when empty).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[lo] + (pos-float64(lo))*(c[lo+1]-c[lo])
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailOK reports whether at least 10 samples lie beyond the q-quantile.
func (s samples) tailOK(q float64) bool {
	return math.Round(float64(len(s))*(1-q)) >= 10
}
