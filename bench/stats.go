package main

import "zoomlens/internal/analysis"

// summary is a sample's minimum, median, quartiles and size.
type summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	c := analysis.NewCDF(values)
	return summary{Min: c.Quantile(0), Median: c.Quantile(0.5), Q1: c.Quantile(0.25), Q3: c.Quantile(0.75), N: c.N()}
}
