package core

import (
	"context"
	"errors"
	"testing"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
)

// TestWorkloadRejectsBadPreload checks that a RAM preload outside data
// RAM or at an odd address is a *PreloadError from Validate, from every
// Tailor entry (before the analysis runs) and from RunWorkload, instead
// of a recovered index panic or a silent write to the even word below.
func TestWorkloadRejectsBadPreload(t *testing.T) {
	prog, err := asm.Assemble(simpleAdd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name string
		ram  map[uint16]uint16
		addr uint16
	}{
		{"outside-ram", map[uint16]uint16{0x0900: 1, 0x0010: 2}, 0x0010},
		{"above-ram", map[uint16]uint16{0x1000: 3}, 0x1000},
		{"odd", map[uint16]uint16{0x0900: 1, 0x0903: 2, 0x0905: 3}, 0x0903},
	} {
		t.Run(tt.name, func(t *testing.T) {
			w := &Workload{RAM: tt.ram}
			check := func(where string, err error) {
				t.Helper()
				var pe *PreloadError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: error %v, want a *PreloadError", where, err)
				}
				if pe.Addr != tt.addr {
					t.Fatalf("%s: PreloadError.Addr = %#04x, want %#04x", where, pe.Addr, tt.addr)
				}
			}
			check("Validate", w.Validate())

			_, err := Tailor(context.Background(), prog, w, Options{})
			check("Tailor", err)
			var fe *FlowError
			if !errors.As(err, &fe) || fe.Stage != "init" {
				t.Fatalf("Tailor error %v, want a *FlowError at stage init", err)
			}

			_, err = RunWorkload(context.Background(), cpu.Build(), prog, w)
			check("RunWorkload", err)

			st := NewStimulus(w)
			err = st.PreloadRAM(func(addr, v uint16) { t.Errorf("preloaded %#04x=%d", addr, v) })
			check("PreloadRAM", err)
		})
	}

	if err := addWorkload().Validate(); err != nil {
		t.Fatalf("valid workload: %v", err)
	}
	edges := &Workload{RAM: map[uint16]uint16{0x0800: 1, 0x0FFE: 2}}
	if err := edges.Validate(); err != nil {
		t.Fatalf("first and last RAM words: %v", err)
	}
	var nilW *Workload
	if err := nilW.Validate(); err != nil {
		t.Fatalf("nil workload: %v", err)
	}
}
