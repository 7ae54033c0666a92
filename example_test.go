package hbtree_test

import (
	"bytes"
	"context"
	"fmt"

	"hbtree"
)

// ExampleNew demonstrates building an HB+-tree and running hybrid batch
// lookups.
func ExampleNew() {
	pairs := hbtree.GeneratePairs[uint64](1<<16, 42)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	queries := hbtree.ShuffledQueries(pairs, 1<<14, 7)
	values, found, stats, err := tree.LookupBatch(queries)
	if err != nil {
		panic(err)
	}
	ok := 0
	for i := range queries {
		if found[i] && values[i] == hbtree.ValueFor(queries[i]) {
			ok++
		}
	}
	fmt.Printf("resolved %d/%d queries in %d buckets\n", ok, len(queries), stats.Buckets)
	// Output:
	// resolved 16384/16384 queries in 1 buckets
}

// ExampleTree_Update demonstrates batch updates on the regular variant
// with synchronized I-segment maintenance.
func ExampleTree_Update() {
	pairs := hbtree.GeneratePairs[uint64](1<<14, 1)
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, LeafFill: 0.8})
	if err != nil {
		panic(err)
	}
	defer tree.Close()

	ops := []hbtree.Op[uint64]{
		{Key: 1000, Value: 11},
		{Key: 2000, Value: 22},
		{Key: pairs[0].Key, Delete: true},
	}
	stats, err := tree.Update(ops, hbtree.Synchronized)
	if err != nil {
		panic(err)
	}
	v, _ := tree.Lookup(1000)
	_, stillThere := tree.Lookup(pairs[0].Key)
	fmt.Printf("applied %d ops; key 1000 -> %d; deleted key present: %v\n",
		stats.Applied, v, stillThere)
	// Output:
	// applied 3 ops; key 1000 -> 11; deleted key present: false
}

// ExampleTree_RangeQuery demonstrates ordered range scans.
func ExampleTree_RangeQuery() {
	pairs := []hbtree.Pair[uint64]{
		{Key: 10, Value: 1}, {Key: 20, Value: 2}, {Key: 30, Value: 3},
		{Key: 40, Value: 4}, {Key: 50, Value: 5},
	}
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		panic(err)
	}
	defer tree.Close()
	for _, p := range tree.RangeQuery(15, 3, nil) {
		fmt.Println(p.Key, p.Value)
	}
	// Output:
	// 20 2
	// 30 3
	// 40 4
}

// ExampleLoad demonstrates persisting and restoring a tree.
func ExampleLoad() {
	pairs := hbtree.GeneratePairs[uint64](1<<12, 5)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		panic(err)
	}
	tree.Close()

	restored, err := hbtree.Load[uint64](&buf, hbtree.Options{})
	if err != nil {
		panic(err)
	}
	defer restored.Close()
	v, found := restored.Lookup(pairs[100].Key)
	fmt.Println(found, v == pairs[100].Value)
	// Output:
	// true true
}

// ExampleCoalescer_SubmitBatch demonstrates submitting a burst of point
// lookups to a coalescer in one call: the keys are admitted and queued
// together, and the call returns once every key is answered.
func ExampleCoalescer_SubmitBatch() {
	pairs := hbtree.GeneratePairs[uint64](1<<12, 3)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		panic(err)
	}
	srv, co := tree.Coalesced()
	defer srv.Close()
	defer co.Close()

	keys := []uint64{pairs[5].Key, pairs[9].Key, pairs[5].Key + 1}
	vals, found, errs := make([]uint64, len(keys)), make([]bool, len(keys)), make([]error, len(keys))
	co.SubmitBatch(context.Background(), keys, vals, found, errs)
	for i := range keys {
		fmt.Println(found[i], errs[i] == nil, !found[i] || vals[i] == hbtree.ValueFor(keys[i]))
	}
	// Output:
	// true true true
	// true true true
	// false true true
}
