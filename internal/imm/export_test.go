package imm

import "uicwelfare/internal/rrset"

// MemoFilled reports whether the sketch's selection memo already holds
// an answer, without computing one: it offers the memo an empty
// selection, which a filled memo refuses. An empty memo takes the offer,
// so a sketch that reports false is spent for further checks.
func (s *Sketch) MemoFilled() bool { return !s.memo.Adopt(rrset.Selection{}) }
