package shard

import (
	"fmt"
	"sort"

	"perfiso/internal/experiments"
)

// ShardAssignment is one shard's share of the plan.
type ShardAssignment struct {
	Shard int `json:"shard"`
	// Cost is the summed cost of the assigned units.
	Cost float64 `json:"cost"`
	// Units lists assigned unit IDs in manifest first-occurrence order.
	Units []string `json:"units"`
}

// Plan is a deterministic cost-balanced partition of a manifest's
// units across N shards: same manifest + N ⇒ same plan.
type Plan struct {
	ManifestHash string            `json:"manifest_hash"`
	Shards       []ShardAssignment `json:"shards"`
}

// PlanShards partitions the manifest into n shards by longest-
// processing-time-first greedy assignment: units sorted by cost
// descending (ties broken by first occurrence) each go to the
// currently lightest shard (ties broken by lowest index). Every unit —
// and hence every keyed group of cells — lands on exactly one shard.
func PlanShards(m Manifest, n int) (Plan, error) {
	if n <= 0 {
		return Plan{}, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	units, err := m.Units()
	if err != nil {
		return Plan{}, err
	}

	p := Plan{ManifestHash: m.Hash, Shards: make([]ShardAssignment, n)}
	assigned := make([][]int, n) // unit indices per shard
	for i := range p.Shards {
		p.Shards[i].Shard = i
	}
	for _, ui := range experiments.CostOrder(units) {
		best := 0
		for s := 1; s < n; s++ {
			if p.Shards[s].Cost < p.Shards[best].Cost {
				best = s
			}
		}
		p.Shards[best].Cost += units[ui].Cost
		assigned[best] = append(assigned[best], ui)
	}
	// Present each shard's units in manifest order, not LPT order.
	for s := range assigned {
		sort.Ints(assigned[s])
		for _, ui := range assigned[s] {
			p.Shards[s].Units = append(p.Shards[s].Units, units[ui].ID)
		}
	}
	return p, nil
}
