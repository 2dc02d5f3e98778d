package smartsra

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTablesMatchResults holds EXPERIMENTS.md's three "Measured
// (matched %)" tables, Figures 8–10, equal to results/figure{8,9,10}.csv at
// one decimal: each table row is the CSV row of its swept value, and each
// cell its heuristic's matched share as a percentage. CI's "The paper's
// figures regenerate" step holds the CSVs to what evaluate prints.
func TestExperimentsTablesMatchResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	figure := map[string]string{"STP%": "figure8", "LPP%": "figure9", "NIP%": "figure10"}
	lines := strings.Split(string(doc), "\n")
	tables := 0
	for i, line := range lines {
		if !strings.HasPrefix(line, "Measured (matched %") {
			continue
		}
		tables++
		// The table follows after one blank line: a header, a rule, rows.
		if i+3 >= len(lines) {
			t.Fatalf("EXPERIMENTS.md:%d: no table after %q", i+1, line)
		}
		header := cells(lines[i+2])
		name, ok := figure[header[0]]
		if !ok {
			t.Fatalf("EXPERIMENTS.md:%d: table header %q names no figure", i+3, lines[i+2])
		}
		rows := figureRows(t, filepath.Join("results", name+".csv"))
		n := 0
		for j := i + 4; j < len(lines) && strings.HasPrefix(lines[j], "|"); j++ {
			n++
			row := cells(lines[j])
			csvRow, ok := rows[row[0]]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: %s %s is no row of %s.csv", j+1, header[0], row[0], name)
				continue
			}
			for k, h := range header[1:] {
				want := csvRow[h+"_matched"]
				if got := strings.Trim(row[k+1], "*"); got != want {
					t.Errorf("EXPERIMENTS.md:%d: %s at %s %s reads %s, %s.csv says %s", j+1, h, header[0], row[0], got, name, want)
				}
			}
		}
		if n == 0 {
			t.Errorf("EXPERIMENTS.md:%d: %s table has no rows", i+1, name)
		}
	}
	if tables != len(figure) {
		t.Errorf("EXPERIMENTS.md has %d \"Measured (matched %%\" tables, want %d", tables, len(figure))
	}
}

// cells splits a Markdown table row into its trimmed cells.
func cells(row string) []string {
	f := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i := range f {
		f[i] = strings.TrimSpace(f[i])
	}
	return f
}

// figureRows reads a figure CSV into its rows keyed by the swept value as a
// whole percentage ("5" for 0.05). A row maps each column to its value as a
// percentage at one decimal, rounded half up from the CSV's four: 0.6665 is
// 66.7, as evaluate's table prints it.
func figureRows(t *testing.T, path string) map[string]map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	rows := map[string]map[string]string{}
	for _, rec := range recs[1:] {
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		row := map[string]string{}
		for i, v := range rec {
			// Four decimals are a whole number of ten-thousandths.
			whole, frac, _ := strings.Cut(v, ".")
			n, err := strconv.Atoi(whole + frac)
			if err == nil && len(frac) == 4 {
				n = (n + 5) / 10
				row[recs[0][i]] = fmt.Sprintf("%d.%d", n/10, n%10)
			}
		}
		rows[fmt.Sprintf("%.0f", x*100)] = row
	}
	return rows
}
