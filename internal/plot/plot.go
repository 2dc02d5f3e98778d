// Package plot renders line charts as standalone SVG documents using only
// the standard library — enough to regenerate the paper's Figures 8-10 as
// images from the evaluation sweeps. It is deliberately small: numeric
// series in, one self-contained SVG out, deterministic byte-for-byte.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line.
type Series struct {
	// Name appears in the legend.
	Name string
	// X and Y are the data points; lengths must match.
	X, Y []float64
}

// Chart describes a line chart.
type Chart struct {
	// Title is drawn across the top.
	Title string
	// XLabel and YLabel caption the axes.
	XLabel, YLabel string
	// Series are the lines, drawn in order.
	Series []Series
	// YMin/YMax pin the y-axis range; when both are zero the range is
	// computed from the data (padded).
	YMin, YMax float64
}

// palette holds the line colors, cycled by series index.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

const (
	width        = 720.0 // the SVG dimensions in pixels
	height       = 460.0
	marginLeft   = 64.0
	marginRight  = 24.0
	marginTop    = 40.0
	marginBottom = 56.0
	legendRow    = 18.0
)

// WriteSVG renders the chart.
func (c *Chart) WriteSVG(w io.Writer) error {
	if len(c.Series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x values and %d y values",
				s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return fmt.Errorf("plot: series %q is empty", s.Name)
		}
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if c.YMin != 0 || c.YMax != 0 {
		ymin, ymax = c.YMin, c.YMax
	} else {
		pad := (ymax - ymin) * 0.08
		if pad == 0 {
			pad = 1
		}
		ymin -= pad
		ymax += pad
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}

	plotW := width - marginLeft - marginRight
	plotH := height - marginTop - marginBottom
	sx := func(x float64) float64 { return marginLeft + (x-xmin)/(xmax-xmin)*plotW }
	sy := func(y float64) float64 { return marginTop + (1-(y-ymin)/(ymax-ymin))*plotH }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&sb, `<text x="%.0f" y="22" text-anchor="middle" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
		width/2, escape(c.Title))

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)

	// Ticks and grid.
	for _, t := range ticks(xmin, xmax, 8) {
		x := sx(t)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			x, marginTop, x, marginTop+plotH)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			x, marginTop+plotH+16, formatTick(t))
	}
	for _, t := range ticks(ymin, ymax, 6) {
		y := sy(t)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="end" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			marginLeft-6, y+4, formatTick(t))
	}

	// Axis labels.
	fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" text-anchor="middle" font-family="sans-serif" font-size="12">%s</text>`+"\n",
		marginLeft+plotW/2, height-14, escape(c.XLabel))
	fmt.Fprintf(&sb, `<text x="16" y="%.1f" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 16 %.1f)">%s</text>`+"\n",
		marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))

	// Series.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		var pts strings.Builder
		for j := range s.X {
			if j > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", sx(s.X[j]), sy(s.Y[j]))
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			pts.String(), color)
		for j := range s.X {
			fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="%s"/>`+"\n",
				sx(s.X[j]), sy(s.Y[j]), color)
		}
	}

	// Legend (top-right inside the plot area).
	lx := marginLeft + plotW - 150
	ly := marginTop + 10
	for i, s := range c.Series {
		y := ly + float64(i)*legendRow
		color := palette[i%len(palette)]
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="2"/>`+"\n",
			lx, y, lx+22, y, color)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="12">%s</text>`+"\n",
			lx+28, y+4, escape(s.Name))
	}

	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// ticks returns up to max+1 "nice" tick positions covering [lo, hi].
func ticks(lo, hi float64, max int) []float64 {
	if max < 2 {
		max = 2
	}
	span := hi - lo
	if span <= 0 {
		return []float64{lo}
	}
	step := niceStep(span / float64(max))
	start := math.Ceil(lo/step) * step
	var out []float64
	for t := start; t <= hi+step/1e6; t += step {
		out = append(out, t)
	}
	return out
}

// niceStep rounds raw up to a 1/2/5×10^k value.
func niceStep(raw float64) float64 {
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	frac := raw / mag
	switch {
	case frac <= 1:
		return mag
	case frac <= 2:
		return 2 * mag
	case frac <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

func formatTick(t float64) string {
	if t == math.Trunc(t) && math.Abs(t) < 1e7 {
		return fmt.Sprintf("%.0f", t)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", t), "0"), ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
