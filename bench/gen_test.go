package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"

	"smartsra/internal/clf"
)

// corpusHash is the sha256 of the topology and every decoded log member.
func corpusHash(t *testing.T, c *corpus) string {
	t.Helper()
	h := sha256.New()
	topo, err := os.ReadFile(c.TopologyPath)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(topo)
	for _, p := range c.LogPaths {
		rc, err := clf.OpenDecoded(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGenerateDeterministic(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		gen := func(seed int64) string {
			c, err := generate(t.TempDir(), genParams{Seed: seed, Agents: 300, Noisy: noisy})
			if err != nil {
				t.Fatal(err)
			}
			return corpusHash(t, c)
		}
		a, b, other := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("noisy=%v: same seed gave %s and %s", noisy, a, b)
		}
		if a == other {
			t.Errorf("noisy=%v: seeds 7 and 8 gave the same corpus", noisy)
		}
	}
}

// The clean corpus must be byte for byte what the repo's own writer makes
// of the same simulation: the fast renderer is an optimisation, not a format.
func TestCleanCorpusMatchesCLFWriter(t *testing.T) {
	p := genParams{Seed: 3, Agents: 400}
	c, err := generate(t.TempDir(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(c.LogPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate(c.Graph, p)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := clf.WriteAll(&want, res.Log(c.Graph)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("rendered log differs from clf.WriteAll (%d vs %d bytes)", len(got), want.Len())
	}
	if c.Counts.Lines != bytes.Count(got, []byte("\n")) || c.Bytes != int64(len(got)) {
		t.Errorf("counts %+v, bytes %d do not describe the %d-byte file", c.Counts, c.Bytes, len(got))
	}
}

// The per-class counts the generator reports are what the repo's scanner
// and standard filter see in the files.
func TestNoisyCountsExact(t *testing.T) {
	c, err := generate(t.TempDir(), genParams{Seed: 5, Agents: 1500, Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LogPaths) != noisyFiles {
		t.Fatalf("%d files, want %d", len(c.LogPaths), noisyFiles)
	}
	keep := clf.StandardCleaning()
	var got classCounts
	for _, p := range c.LogPaths {
		if !clf.IsGzipFile(p) {
			t.Errorf("%s is not gzip", p)
		}
		rc, err := clf.OpenDecoded(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := clf.NewScanner(rc)
		for sc.Scan() {
			rec := sc.Record()
			got.Records++
			if rec.UserAgent == "" {
				t.Fatalf("record without user agent: not combined format: %v", rec)
			}
			if !keep(rec) {
				got.Filtered++
			} else if _, ok := c.Graph.PageByURI(rec.URI); !ok {
				got.Unresolved++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		bad, _ := sc.Malformed()
		got.Malformed += bad
		got.Lines += sc.LinesRead()
		rc.Close()
	}
	if got != c.Counts {
		t.Errorf("files hold %+v, generator reports %+v", got, c.Counts)
	}
	if c.Counts.Malformed < overlongLines+1 || c.Counts.Unresolved == 0 || 2*c.Counts.Filtered < c.Counts.Records {
		t.Errorf("noise classes missing or thin: %+v", c.Counts)
	}
	for _, l := range malformedLines {
		if _, _, err := clf.ParseAnyRecordBytes([]byte(l)); err == nil {
			t.Errorf("malformed template parses: %q", l)
		}
	}
}
