//go:build !amd64

package tensor

// hostTiers lists the kernel tiers this host can run: the portable one.
func hostTiers() []kernelTier { return []kernelTier{tierPortable} }

// withTier runs f; the portable tier is the only one here.
func withTier(_ kernelTier, f func()) { f() }
