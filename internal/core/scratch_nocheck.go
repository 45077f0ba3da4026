//go:build !scratchcheck

package core

// ScratchCheck is set in the scratchcheck build, in which an arena's reset,
// a sort scratch given back and a released Scratch's body poison them.
const ScratchCheck = false
