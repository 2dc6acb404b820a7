package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"hvc/internal/core"
)

// MatrixSchema identifies the sweep-report JSON layout. Bump it when a
// field changes meaning; additive fields keep the version.
const MatrixSchema = "hvc-sweep-report/v1"

// A Matrix is one sweep's aggregated result: per-cell multi-seed
// statistics in grid order. Both serializations are deterministic —
// byte-identical for any worker count — which the determinism test
// suite pins.
type Matrix struct {
	Schema string `json:"schema"`
	// Spec is the canonical grid spec (ParseSpec round-trips it).
	Spec string `json:"spec"`
	// Jobs counts the grid's (cell, seed) simulations.
	Jobs  int    `json:"jobs"`
	Cells []Cell `json:"cells"`
}

// A Cell is one grid cell's aggregate over its seed range.
type Cell struct {
	Exp     string       `json:"exp"`
	CC      string       `json:"cc,omitempty"`
	Policy  string       `json:"policy"`
	Trace   string       `json:"trace"`
	Seeds   string       `json:"seeds"`
	Metrics []CellMetric `json:"metrics"`
}

// A CellMetric is one named statistic aggregated across seeds.
type CellMetric struct {
	Name string `json:"name"`
	core.Summary
}

// WriteJSON serializes the matrix as an hvc-sweep-report/v1 bundle,
// indented, trailing newline.
func (m *Matrix) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV serializes the matrix tidy — one row per (cell, metric) —
// for direct loading into dataframe tooling.
func (m *Matrix) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "exp,cc,policy,trace,seeds,metric,n,mean,std,min,max,median,ci95\n"); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range m.Cells {
		for _, mt := range c.Metrics {
			row := fmt.Sprintf("%s,%s,%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s\n",
				c.Exp, c.CC, c.Policy, c.Trace, c.Seeds, mt.Name,
				mt.N, g(mt.Mean), g(mt.Std), g(mt.Min), g(mt.Max), g(mt.Median), g(mt.CI95))
			if _, err := io.WriteString(w, row); err != nil {
				return err
			}
		}
	}
	return nil
}
