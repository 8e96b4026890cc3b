package obs

// Coherent re-derives the profile store's SLRU invariants, for tests.
func (s *ProfileStore) Coherent() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Coherent()
}
