package core

// DefaultMaxCycles bounds a workload run whose MaxCycles is zero.
const DefaultMaxCycles = 2_000_000

// Stimulus is a cursor over a workload's input schedule: every
// simulator that runs a workload (gate-level, bit-parallel lanes, the
// ISA model) drives its inputs through one. A nil workload is an empty
// schedule with the default budget.
type Stimulus struct {
	w       *Workload
	p1, irq int // next unapplied step of each schedule
}

// NewStimulus returns a cursor at the start of w's schedule.
func NewStimulus(w *Workload) Stimulus { return Stimulus{w: w} }

// Apply applies every step due by cycle that has not been applied yet,
// in schedule order: the P1 steps through p1, then the IRQ steps through
// irq. A cursor started late catches up on every step already due.
func (s *Stimulus) Apply(cycle uint64, p1 func(uint16), irq func(line int, level bool)) {
	if s.w == nil {
		return
	}
	for ; s.p1 < len(s.w.P1) && s.w.P1[s.p1].At <= cycle; s.p1++ {
		p1(s.w.P1[s.p1].Value)
	}
	for ; s.irq < len(s.w.IRQ) && s.w.IRQ[s.irq].At <= cycle; s.irq++ {
		st := s.w.IRQ[s.irq]
		irq(st.Line, st.Level)
	}
}

// Budget returns the workload's cycle bound: MaxCycles, or
// DefaultMaxCycles when that is zero.
func (s *Stimulus) Budget() uint64 {
	if s.w != nil && s.w.MaxCycles != 0 {
		return s.w.MaxCycles
	}
	return DefaultMaxCycles
}

// PreloadRAM validates the workload and then passes every preloaded RAM
// word (byte address, value) to set. A workload that fails Validate
// preloads nothing.
func (s *Stimulus) PreloadRAM(set func(addr, v uint16)) error {
	if err := s.w.Validate(); err != nil {
		return err
	}
	if s.w == nil {
		return nil
	}
	for addr, v := range s.w.RAM {
		set(addr, v)
	}
	return nil
}
