package core_test

import (
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/core"
)

// TestInductCacheKey: the induction knobs are part of the tailored-core
// cache identity — toggling Induct or changing InductK must produce a
// different key. Options that imply others (Induct implies Prove, Prove
// implies Sym.RecordDomains) key like their spelled-out forms, since
// both run the same flow.
func TestInductCacheKey(t *testing.T) {
	p := asm.MustAssemble(cachedAdd)
	tc := core.NewTailorCache()
	ws := []*core.Workload{cachedAddWorkload()}
	key := func(opts core.Options) core.Key {
		t.Helper()
		k, err := tc.Key([]*asm.Program{p}, ws, opts)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	plain := key(core.Options{})
	prove := key(core.Options{Prove: true})
	induct := key(core.Options{Induct: true})
	inductDeep := key(core.Options{Induct: true, InductK: 12})

	if plain == prove || prove == induct || induct == inductDeep || plain == induct {
		t.Fatalf("option knobs collapsed: plain=%s prove=%s induct=%s induct12=%s",
			plain, prove, induct, inductDeep)
	}
	// Induct implies Prove: spelling it out must not fork the cache.
	if both := key(core.Options{Induct: true, Prove: true}); both != induct {
		t.Fatalf("Induct+Prove keys differently from Induct alone: %s vs %s", both, induct)
	}
	// Prove forces RecordDomains on: spelling that out must not fork it
	// either.
	spelled := core.Options{Prove: true}
	spelled.Sym.RecordDomains = true
	if k := key(spelled); k != prove {
		t.Fatalf("Prove+RecordDomains keys differently from Prove alone: %s vs %s", k, prove)
	}
}
