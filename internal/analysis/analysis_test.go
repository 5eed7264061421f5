package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.N() != 5 {
		t.Errorf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.2}, {2.5, 0.4}, {5, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if q := c.Quantile(0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := c.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := c.Quantile(1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 {
		t.Error("At on empty CDF")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("Quantile on empty CDF should be NaN")
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c := NewCDF(samples)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, yPos); math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v, want 1", r)
	}
	if r := Pearson(x, yNeg); math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v, want -1", r)
	}
	// Independent noise: |r| small.
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i], b[i] = rng.Float64(), rng.Float64()
	}
	if r := Pearson(a, b); math.Abs(r) > 0.05 {
		t.Errorf("independent r = %v", r)
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("n=1 should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero variance should be NaN")
	}
}

func TestMean(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); m != 5 {
		t.Errorf("mean = %v", m)
	}
}

func TestMeanAbsError(t *testing.T) {
	est := []float64{1, 2, 3}
	truth := []float64{1, 3, 5}
	if got := MeanAbsError(est, truth); got != 1 {
		t.Errorf("mae = %v", got)
	}
	if !math.IsNaN(MeanAbsError(nil, nil)) {
		t.Error("empty mae should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "Demo", Headers: []string{"Name", "Value"}}
	tbl.AddRow("alpha", F(3.14159, 2))
	tbl.AddRow("b", "42")
	s := tbl.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "3.14") {
		t.Errorf("rendered:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), s)
	}
}

func TestPlotCDFs(t *testing.T) {
	series := map[string]*CDF{
		"video": NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
		"audio": NewCDF([]float64{0.1, 0.2, 0.3}),
	}
	out := PlotCDFs(series, 0, 40, 10)
	if !strings.Contains(out, "a = audio (n=3)") || !strings.Contains(out, "b = video (n=10)") {
		t.Errorf("legend missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	plotRows := 0
	for _, l := range lines {
		if strings.Contains(l, "|") {
			plotRows++
		}
	}
	if plotRows != 10 {
		t.Errorf("plot rows = %d", plotRows)
	}
	// Degenerate inputs.
	if got := PlotCDFs(map[string]*CDF{"x": NewCDF(nil)}, 0, 40, 10); !strings.Contains(got, "no samples") {
		t.Errorf("empty: %q", got)
	}
	// Tiny dims clamp, no panic.
	_ = PlotCDFs(series, 5, 1, 1)
}
