//go:build amd64

package tensor

// hostTiers lists the kernel tiers this host can run, portable first.
func hostTiers() []kernelTier {
	tiers := []kernelTier{tierPortable}
	if hasAVX {
		tiers = append(tiers, tierAVX)
	}
	if hasAVX512 {
		tiers = append(tiers, tierAVX512)
	}
	return tiers
}

// withTier runs f with tier t as the fastest enabled: AVX2 alone, both
// vector tiers, or neither. It must not run beside another kernel call.
func withTier(t kernelTier, f func()) {
	prevAVX, prev512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = prevAVX, prev512 }()
	useAVX, useAVX512 = t >= tierAVX, t == tierAVX512
	f()
}
