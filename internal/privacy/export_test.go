package privacy

import "math/rand/v2"

// seededReleaser is the one way to a reproducible noise stream: a
// releaser over a fixed ChaCha8 key, for the tests whose assertions are
// statistical. Every releaser outside the tests is keyed from
// crypto/rand (NewCountReleaser).
func seededReleaser(acct *Accountant, seed byte) *CountReleaser {
	return &CountReleaser{acct: acct, rng: rand.New(rand.NewChaCha8([32]byte{seed}))}
}
