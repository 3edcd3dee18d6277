// Sharding operators: the donation algebra (steal-by-halving) and the
// tiling operator the intra-worker multicore engine is built on, kept
// here so the code that moves work between explorers has one audited
// implementation. Both are pure functions of the interval bounds; the
// fuzz suite pins their conservation laws (pieces tile the input exactly,
// never overlap, empties stay absorbing) against the brute-force model.
package interval

// Halve is the donation operator: it splits iv at its midpoint into the
// part the holder keeps ([A, mid), the region its depth-first walk is
// already inside) and the part it donates ([mid, B)). An interval too short
// to share — fewer than two numbers, including every empty interval — is
// kept whole: keep echoes iv and give is empty, so donation chains absorb
// empties instead of manufacturing work from them.
func Halve(iv Interval) (keep, give Interval) {
	length := iv.Width()
	if length.Cmp(NumInt64(2)) < 0 {
		return iv, Interval{}
	}
	// mid = ⌊(A+B)/2⌋ = A + ⌊len/2⌋, without the sum's overflow.
	var mid Num
	mid.MulQuo(length, 1, 2)
	mid.Add(mid, iv.a)
	return iv.SplitAt(mid)
}

// SplitEven tiles iv into n contiguous pieces of near-equal length (the
// first Len mod n pieces get one extra number), in ascending order. The
// pieces always tile iv exactly; when iv holds fewer than n numbers the
// trailing pieces are empty. It is the initial shard layout of the
// multicore worker engine: one piece per shard explorer, which then
// rebalance among themselves with Halve-based stealing. n < 1 is treated
// as 1.
func SplitEven(iv Interval, n int) []Interval {
	if n < 1 {
		n = 1
	}
	out := make([]Interval, n)
	if iv.IsEmpty() {
		return out
	}
	length := iv.Width()
	var quo, rem Num
	quo.MulQuo(length, 1, int64(n))
	rem.Mul64(quo, int64(n))
	rem.Sub(length, rem)
	cut := iv.a
	for i := 0; i < n; i++ {
		var next Num
		next.Add(cut, quo)
		if int64(i) < rem.Int64() {
			next.Add(next, NumInt64(1))
		}
		out[i] = Interval{a: cut, b: next}
		cut = next
	}
	return out
}
