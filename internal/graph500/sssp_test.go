package graph500

import (
	"testing"

	"swbfs/internal/algos"
	"swbfs/internal/graph"
)

func TestValidateSSSPAcceptsOracle(t *testing.T) {
	g, err := graph.BuildKronecker(graph.KroneckerConfig{Scale: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wg, err := graph.GenerateWeights(g, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, root := g.MaxDegree()
	dist := algos.ReferenceSSSP(wg, root)
	if err := ValidateSSSP(wg, root, dist); err != nil {
		t.Fatalf("oracle rejected: %v", err)
	}
}

func TestValidateSSSPRejectsCorruptions(t *testing.T) {
	g, err := graph.BuildCSR(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg, err := graph.GenerateWeights(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := algos.ReferenceSSSP(wg, 0)

	corrupt := func(mutate func(d []int64)) []int64 {
		d := append([]int64(nil), base...)
		mutate(d)
		return d
	}
	cases := map[string][]int64{
		"root nonzero":       corrupt(func(d []int64) { d[0] = 5 }),
		"slack violation":    corrupt(func(d []int64) { d[2] = base[2] + 100 }),
		"unreachable hole":   corrupt(func(d []int64) { d[1] = algos.InfDistance }),
		"too short (cheat)":  corrupt(func(d []int64) { d[2] = 0 }),
		"garbage magnitude":  corrupt(func(d []int64) { d[3] = algos.InfDistance + 7 }),
		"spurious reachable": corrupt(func(d []int64) { d[3] = 1 }),
	}
	for name, dist := range cases {
		t.Run(name, func(t *testing.T) {
			if err := ValidateSSSP(wg, 0, dist); err == nil {
				t.Fatal("corruption accepted")
			}
		})
	}
	if err := ValidateSSSP(wg, 0, base[:2]); err == nil {
		t.Fatal("short array accepted")
	}
	if err := ValidateSSSP(wg, 99, base); err == nil {
		t.Fatal("bad root accepted")
	}
}
