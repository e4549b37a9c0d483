package core

import (
	"fmt"
	"reflect"
	"testing"
)

func TestStimulus(t *testing.T) {
	w := &Workload{
		RAM: map[uint16]uint16{0x0800: 7},
		P1: []P1Step{
			{At: 0, Value: 1},
			{At: 3, Value: 2},
			{At: 3, Value: 3},
			{At: 5, Value: 4},
		},
		IRQ: []IRQStep{
			{At: 0, Line: 1, Level: true},
			{At: 3, Line: 0, Level: true},
			{At: 3, Line: 0, Level: false},
		},
		MaxCycles: 100,
	}
	// run applies the cursor at each cycle and logs the steps by cycle.
	run := func(st Stimulus, cycles ...uint64) []string {
		var log []string
		for _, c := range cycles {
			st.Apply(c,
				func(v uint16) { log = append(log, fmt.Sprintf("%d:p1=%d", c, v)) },
				func(line int, level bool) { log = append(log, fmt.Sprintf("%d:irq%d=%v", c, line, level)) })
		}
		return log
	}
	for _, tc := range []struct {
		name   string
		w      *Workload
		cycles []uint64
		want   []string
	}{
		{"every cycle", w, []uint64{0, 1, 2, 3, 4, 5, 6},
			[]string{"0:p1=1", "0:irq1=true", "3:p1=2", "3:p1=3", "3:irq0=true", "3:irq0=false", "5:p1=4"}},
		{"started late", w, []uint64{4, 5},
			[]string{"4:p1=1", "4:p1=2", "4:p1=3", "4:irq1=true", "4:irq0=true", "4:irq0=false", "5:p1=4"}},
		{"applied once", w, []uint64{0, 0, 3, 3},
			[]string{"0:p1=1", "0:irq1=true", "3:p1=2", "3:p1=3", "3:irq0=true", "3:irq0=false"}},
		{"nil workload", nil, []uint64{0, 1, 1000}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(NewStimulus(tc.w), tc.cycles...); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("applied %q, want %q", got, tc.want)
			}
		})
	}

	st := NewStimulus(w)
	if got := st.Budget(); got != 100 {
		t.Errorf("Budget() = %d, want the workload's MaxCycles 100", got)
	}
	ram := map[uint16]uint16{}
	st.PreloadRAM(func(addr, v uint16) { ram[addr] = v })
	if !reflect.DeepEqual(ram, w.RAM) {
		t.Errorf("PreloadRAM set %v, want %v", ram, w.RAM)
	}

	empty := NewStimulus(nil)
	if got := empty.Budget(); got != DefaultMaxCycles {
		t.Errorf("nil workload Budget() = %d, want %d", got, DefaultMaxCycles)
	}
	empty.PreloadRAM(func(addr, v uint16) { t.Errorf("nil workload preloaded %#04x=%d", addr, v) })
	unbounded := NewStimulus(&Workload{})
	if got := unbounded.Budget(); got != DefaultMaxCycles {
		t.Errorf("zero MaxCycles Budget() = %d, want %d", got, DefaultMaxCycles)
	}
}
