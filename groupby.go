package progopt

// GroupRow is one output row of a grouped aggregation.
type GroupRow struct {
	// Key is the group key.
	Key int64
	// Sum is the aggregated value and Count the contributing tuple count.
	Sum   float64
	Count int64
}
