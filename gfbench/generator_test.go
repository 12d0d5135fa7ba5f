package main

import (
	"reflect"
	"testing"
)

// testLabels is a federation of 5 clients × 300 rows over 10 classes.
func testLabels() [][]int {
	labels := make([][]int, 5)
	for c := range labels {
		labels[c] = make([]int, 300)
		for r := range labels[c] {
			labels[c][r] = (r*7 + c) % 10
		}
	}
	return labels
}

func stream(seed int64, rounds int) []arrival {
	g := newGenerator(testLabels(), 10, seed)
	var out []arrival
	for r := 0; r < rounds; r++ {
		out = append(out, g.next(r)...)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := stream(7, 100), stream(7, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	if reflect.DeepEqual(a, stream(8, 100)) {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestGeneratorStaleShare(t *testing.T) {
	var samples, stale int
	for seed := int64(1); seed <= 10; seed++ {
		for _, a := range stream(seed, 100) {
			if a.req.Kind != "sample" {
				continue
			}
			samples++
			if a.stale {
				stale++
			}
		}
	}
	share := float64(stale) / float64(samples)
	// Early rounds have no old enough rows to resend, so the share sits a
	// little below streamStaleFrac.
	if share < streamStaleFrac*0.7 || share > streamStaleFrac*1.1 {
		t.Fatalf("stale share %.3f over %d sample requests, want about %.2f", share, samples, streamStaleFrac)
	}
}

// TestGeneratorValidRequestsStayValid replays the stream against a model
// of the federation and checks that every valid request is valid when it
// arrives, and every stale one names a row requested staleLag rounds
// before.
func TestGeneratorValidRequestsStayValid(t *testing.T) {
	labels := testLabels()
	for seed := int64(1); seed <= 5; seed++ {
		g := newGenerator(labels, 10, seed)
		requested := map[[2]int]int{} // (client, row) → round
		classGone := map[int]bool{}
		clients := len(labels)
		var classes, removals int
		for round := 0; round < 200; round++ {
			for _, a := range g.next(round) {
				switch a.req.Kind {
				case "class":
					classes++
					if classGone[a.req.Class] {
						t.Fatalf("seed %d round %d: class %d deleted twice", seed, round, a.req.Class)
					}
					classGone[a.req.Class] = true
				case "client":
					removals++
					if a.req.Client != clients-1 {
						t.Fatalf("seed %d: removal of position %d, not the last (%d)", seed, a.req.Client, clients-1)
					}
					clients--
				case "sample":
					if a.req.Client < 0 || a.req.Client >= clients {
						t.Fatalf("seed %d round %d: client %d of %d", seed, round, a.req.Client, clients)
					}
					for _, row := range a.req.Rows {
						at, seen := requested[[2]int{a.req.Client, row}]
						if a.stale {
							if !seen || at > round-streamStaleLag {
								t.Fatalf("seed %d round %d: stale row %d not requested %d rounds before", seed, round, row, streamStaleLag)
							}
							continue
						}
						if seen {
							t.Fatalf("seed %d round %d: valid request names row %d again", seed, round, row)
						}
						if classGone[labels[a.req.Client][row]] {
							t.Fatalf("seed %d round %d: valid request names row %d of a deleted class", seed, round, row)
						}
						requested[[2]int{a.req.Client, row}] = round
					}
				}
			}
		}
		if classes != streamClassDrops || removals != 1 {
			t.Fatalf("seed %d: %d class deletions and %d removals, want %d and 1", seed, classes, removals, streamClassDrops)
		}
	}
}

// TestGeneratorBurstsExceedQueue checks that bursts overflow the service's
// queue.
func TestGeneratorBurstsExceedQueue(t *testing.T) {
	perRound := map[int]int{}
	for _, a := range stream(3, 60) {
		perRound[a.round]++
	}
	if perRound[streamBurstEvery] <= streamQueueCap {
		t.Fatalf("burst round brings %d requests, queue holds %d", perRound[streamBurstEvery], streamQueueCap)
	}
}
