//go:build scratchcheck

package core

// ScratchCheck is set in the scratchcheck build, in which a buffer given back
// to a Scratch, and a released Scratch whole, are poisoned.
const ScratchCheck = true
