package symbolic

// groupByKey is the one counting-sort pass (histogram, exclusive
// prefix, stable scatter) shared by the per-mode update lists, the
// radix passes of GroupByModes, and FiberGroups. Elements —
// the entries of ids, or 0..len(keys)-1 when ids is nil — are scattered
// into out stably grouped by ascending key, where the key of element e
// is keys[e]. counts must be zeroed with len(counts) > max key; on
// return counts[k] holds the end offset of key k's group (its start is
// counts[k-1], or 0 for k = 0).
func groupByKey(keys, ids, out, counts []int32) {
	if ids == nil {
		for _, k := range keys {
			counts[k]++
		}
	} else {
		for _, e := range ids {
			counts[keys[e]]++
		}
	}
	var sum int32
	for k := range counts {
		c := counts[k]
		counts[k] = sum
		sum += c
	}
	if ids == nil {
		for e, k := range keys {
			out[counts[k]] = int32(e)
			counts[k]++
		}
	} else {
		for _, e := range ids {
			k := keys[e]
			out[counts[k]] = e
			counts[k]++
		}
	}
}
