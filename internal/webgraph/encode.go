package webgraph

import (
	"encoding/json"
	"fmt"
	"io"
)

// graphJSON is the on-disk representation written by Encode. Edges are
// stored as per-source adjacency lists to keep files compact and diffable.
type graphJSON struct {
	Pages      int        `json:"pages"`
	Labels     []string   `json:"labels"`
	StartPages []PageID   `json:"start_pages"`
	Edges      [][]PageID `json:"edges"` // Edges[u] = sorted out-neighbors of u
}

// Encode writes the graph as JSON. The format round-trips exactly through
// Decode and is what cmd/simgen emits so that cmd/sessionize and
// cmd/evaluate can reuse a topology.
func (g *Graph) Encode(w io.Writer) error {
	j := graphJSON{
		Pages:      g.n,
		Labels:     g.labels,
		StartPages: g.starts,
		Edges:      g.succ,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(j); err != nil {
		return fmt.Errorf("webgraph: encode: %w", err)
	}
	return nil
}

// Decode reads a graph previously written by Encode, validating the payload
// (edge ranges, label count, start-page ranges) before constructing it.
func Decode(r io.Reader) (*Graph, error) {
	var j graphJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("webgraph: decode: %w", err)
	}
	if j.Pages < 0 {
		return nil, fmt.Errorf("webgraph: decode: negative page count %d", j.Pages)
	}
	if len(j.Labels) != 0 && len(j.Labels) != j.Pages {
		return nil, fmt.Errorf("webgraph: decode: %d labels for %d pages", len(j.Labels), j.Pages)
	}
	if len(j.Edges) > j.Pages {
		return nil, fmt.Errorf("webgraph: decode: adjacency for %d pages but only %d declared",
			len(j.Edges), j.Pages)
	}
	b := NewBuilder(j.Pages)
	for i, uri := range j.Labels {
		if err := b.SetLabel(PageID(i), uri); err != nil {
			return nil, err
		}
	}
	for u, out := range j.Edges {
		for _, v := range out {
			if err := b.AddEdge(PageID(u), v); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range j.StartPages {
		if err := b.MarkStartPage(s); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
