// Package simulator implements the paper's agent simulator (§4): a
// generative model of web users navigating a site topology. It produces both
// the ground-truth sessions (known because the simulator sees every
// navigation, including ones served from the browser cache) and the web
// server's access log (which misses the cache-served navigations). The
// evaluation harness scores reconstruction heuristics by comparing their
// output on the log against the ground truth.
package simulator

import (
	"fmt"
	"time"
)

// Params configures a simulation run. Start from PaperParams and adjust.
type Params struct {
	// STP is the Session Termination Probability: at each request the agent
	// stops with probability STP (behavior 4). Range (0, 1).
	STP float64
	// LPP is the Link-from-Previous-pages Probability: the chance the agent
	// moves back through the browser cache to an earlier page and continues
	// from there (behavior 3). Range [0, 1).
	LPP float64
	// NIP is the New-Initial-page Probability: the chance the agent jumps to
	// an unvisited start page, ending the current session (behavior 1).
	// Range [0, 1).
	NIP float64
	// Agents is the number of simulated web users; 10000 in Table 5.
	Agents int
	// Seed makes the whole run reproducible. Each agent derives its own
	// deterministic generator from Seed, so results do not depend on
	// scheduling.
	Seed int64
	// StartWindow spreads agent arrivals: each agent begins at origin plus
	// an offset inside it. Zero means 24h.
	StartWindow time.Duration
	// Workers bounds the number of agents simulated concurrently; zero means
	// GOMAXPROCS.
	Workers int
	// ProxyFraction is the fraction of agents that sit behind shared proxy
	// IPs (the paper, §1: "all users behind a proxy server will have the
	// same IP number ... will be seen as a single client machine"). Their
	// log records carry the proxy's address, so a reactive pipeline merges
	// their request streams. Range [0, 1]; zero disables proxies.
	ProxyFraction float64
	// ProxySize is how many agents share one proxy IP; zero means 4.
	ProxySize int
}

// Table 5 fixes the page-stay law, and the simulator fixes where time starts
// and how long an agent may run.
const (
	// meanStay is the mean page-stay time; the paper uses 2.12 minutes
	// (median of a normal distribution equals its mean).
	meanStay = 2*time.Minute + 7200*time.Millisecond // 2m07.2s
	// stdDevStay is the page-stay standard deviation, 0.5 minutes.
	stdDevStay = 30 * time.Second
	// maxRequests caps one agent's total navigations, a safety net for an
	// STP near zero.
	maxRequests = 1000
)

// origin is the simulated wall-clock origin, 2006-01-02 00:00 UTC.
var origin = time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)

// PaperParams returns Table 5's fixed parameters: STP 5%, LPP 30%, NIP 30%,
// 10000 agents. Its page-stay law, N(2.12 min, σ 0.5 min), is fixed.
func PaperParams() Params {
	return Params{
		STP:    0.05,
		LPP:    0.30,
		NIP:    0.30,
		Agents: 10000,
		Seed:   1,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.STP <= 0 || p.STP >= 1 {
		return fmt.Errorf("simulator: STP %.3f out of range (0, 1)", p.STP)
	}
	if p.LPP < 0 || p.LPP >= 1 {
		return fmt.Errorf("simulator: LPP %.3f out of range [0, 1)", p.LPP)
	}
	if p.NIP < 0 || p.NIP >= 1 {
		return fmt.Errorf("simulator: NIP %.3f out of range [0, 1)", p.NIP)
	}
	if p.Agents <= 0 {
		return fmt.Errorf("simulator: agent count %d not positive", p.Agents)
	}
	if p.ProxyFraction < 0 || p.ProxyFraction > 1 {
		return fmt.Errorf("simulator: proxy fraction %.3f out of range [0, 1]", p.ProxyFraction)
	}
	if p.ProxySize < 0 {
		return fmt.Errorf("simulator: proxy size %d negative", p.ProxySize)
	}
	return nil
}

// withDefaults fills the zero-value fields.
func (p Params) withDefaults() Params {
	if p.StartWindow == 0 {
		p.StartWindow = 24 * time.Hour
	}
	if p.ProxySize == 0 {
		p.ProxySize = 4
	}
	return p
}
