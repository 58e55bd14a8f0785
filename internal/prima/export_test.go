package prima

// PrefixCoverage exposes the memoised coverage-at-prefix vector to the
// external test package (which needs internal/store, an importer of this
// package, for the round-trip case).
func (s *Sketch) PrefixCoverage() []int64 { return s.memo.Get(s.Col, s.MaxBudget).Covered }
