package rrset

import "testing"

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Eps != 0.5 || o.Ell != 1 {
		t.Errorf("defaults %+v", o)
	}
	o = Options{Eps: 0.2, Ell: 2}.WithDefaults()
	if o.Eps != 0.2 || o.Ell != 2 {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}
