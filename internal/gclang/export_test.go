package gclang

// InTranslucentCall reports whether m's control is the call a translucent
// head was just rewritten to (the step before the call itself).
func InTranslucentCall(m *EnvMachine) bool { return m.pc == tcallPC }

// FrameSlots reports how many slots, over all four namespaces, the frame
// of the block m is running has.
func FrameSlots(m *EnvMachine) int {
	n := 0
	for _, w := range m.blk.width {
		n += int(w)
	}
	return n
}
