package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"smartsra/internal/webgraph"
	"smartsra/internal/webserver"
)

// site writes a small topology to a temp file and returns it with its path.
func site(t *testing.T) (*webgraph.Graph, string) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 6, StartPageFraction: 0.1,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topology.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// replay runs loadgen's whole run, unpaced, against url.
func replay(url, topo string) error {
	return run(url, topo, 40, 7, 0, 4, false)
}

// TestRunPassesAgainstTheSite: the replay against the site it was generated
// for passes every check.
func TestRunPassesAgainstTheSite(t *testing.T) {
	g, topo := site(t)
	srv := httptest.NewServer(webserver.NewSite(g))
	defer srv.Close()
	if err := replay(srv.URL, topo); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunFailsOnServerErrors: a server that answers every 10th page with 500
// fails the run, and the error names the check.
func TestRunFailsOnServerErrors(t *testing.T) {
	g, topo := site(t)
	pages := webserver.NewSite(g)
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%10 == 0 {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		pages.ServeHTTP(w, r)
	}))
	defer srv.Close()
	err := replay(srv.URL, topo)
	if err == nil || !strings.Contains(err.Error(), "errors") {
		t.Fatalf("run = %v, want a failed errors check", err)
	}
}
