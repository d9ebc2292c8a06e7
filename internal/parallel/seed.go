package parallel

// mix64 is the output finalizer of SplitMix64, the 64-bit mixing generator
// from Steele, Lea & Flood, "Fast Splittable Pseudorandom Number Generators"
// (OOPSLA 2014) — the standard way to split one root seed into statistically
// independent per-shard streams. Here it only has to guarantee that shard i's
// seed is a pure function of (root, i), so any worker can compute it without
// coordination.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns the seed for shard index of the stream rooted at root. It
// is a pure function — no stepper state — so shard seeds can be computed in
// any order by any worker and always agree: Derive(root, i) is the i-th
// element of the SplitMix64 stream seeded with root.
func Derive(root int64, index uint64) int64 {
	// Jump the stepper directly to position index+1: state after k steps is
	// seed + k*gamma, so no loop is needed.
	const gamma = 0x9e3779b97f4a7c15
	return int64(mix64(uint64(root) + (index+1)*gamma))
}
