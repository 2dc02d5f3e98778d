// Package prep turns a cleaned web-server log into the per-user,
// timestamp-ordered request streams that session reconstruction heuristics
// consume. It covers the paper's user-identification step: for reactive
// processing "IP address, request time, and URL are the only information
// needed", so users are keyed by IP.
package prep

import (
	"fmt"
	"sort"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Resolver maps a request URI to a page of the site topology. Unresolvable
// URIs (external links, unmapped paths) are dropped and counted.
type Resolver func(uri string) (webgraph.PageID, bool)

// GraphResolver resolves URIs against the labels of g.
func GraphResolver(g *webgraph.Graph) Resolver {
	return g.PageByURI
}

// Options configures BuildStreams. The zero value means no cleaning filter.
type Options struct {
	// Filter drops records before user identification; nil keeps everything.
	// Use clf.StandardCleaning() for the conventional pipeline.
	Filter clf.Filter
}

// Stats reports what happened to the input during stream building.
type Stats struct {
	// Records is the number of input records.
	Records int
	// Filtered is the number dropped by the cleaning filter.
	Filtered int
	// Unresolved is the number of surviving records whose URI did not map to
	// a page of the topology.
	Unresolved int
	// Users is the number of distinct users identified.
	Users int
}

// BuildStreams groups records into per-user request streams, sorted by
// timestamp within each user (stable, so same-timestamp records keep log
// order). Streams are returned sorted by user key for determinism.
func BuildStreams(records []clf.Record, resolve Resolver, opts Options) ([]session.Stream, Stats, error) {
	if resolve == nil {
		return nil, Stats{}, fmt.Errorf("prep: nil resolver")
	}
	stats := Stats{Records: len(records)}
	byUser := make(map[string][]session.Entry)
	for _, rec := range records {
		if opts.Filter != nil && !opts.Filter(rec) {
			stats.Filtered++
			continue
		}
		page, ok := resolve(rec.URI)
		if !ok {
			stats.Unresolved++
			continue
		}
		byUser[rec.Host] = append(byUser[rec.Host], session.Entry{Page: page, Time: rec.Time})
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	streams := make([]session.Stream, 0, len(users))
	for _, u := range users {
		entries := byUser[u]
		sort.SliceStable(entries, func(i, j int) bool {
			return entries[i].Time.Before(entries[j].Time)
		})
		streams = append(streams, session.Stream{User: u, Entries: entries})
	}
	stats.Users = len(streams)
	return streams, stats, nil
}
