// Package serve is tailoring-as-a-service: an HTTP/JSON front end over
// core.TailorCache that coalesces identical concurrent requests
// (singleflight on the content-addressed cache key), runs cold flows on
// a bounded worker pool with admission control, maps per-request
// deadlines onto the flow's context plumbing, and renders the flow's
// structured errors (*core.FlowError, *core.LintError,
// *symexec.LimitError, *equiv.ProofError) as JSON error bodies.
//
// Endpoints:
//
//	POST /v1/tailor  — tailor a program (or several) to a bespoke core
//	GET  /v1/stats   — server, pool and cache counters
//	GET  /healthz    — liveness
package serve

import (
	"encoding/base64"
	"fmt"
	"strconv"

	"bespoke/internal/asm"
	"bespoke/internal/core"
	"bespoke/internal/faultinject"
	"bespoke/internal/netlist"
	"bespoke/internal/symexec"
)

// Request is the POST /v1/tailor body. Exactly one of Source/Image (or,
// for multi-program designs, a non-empty Programs list) must be set.
type Request struct {
	// Source is MSP430 assembly text, assembled server-side.
	Source string `json:"source,omitempty"`
	// Image is a raw pre-assembled binary image.
	Image *Image `json:"image,omitempty"`
	// Workload is the representative stimulus for the single-program
	// forms above.
	Workload *Workload `json:"workload,omitempty"`

	// Programs is the multi-program form (the union design of the
	// paper's Section 3.5); mutually exclusive with Source/Image.
	Programs []ProgramSpec `json:"programs,omitempty"`

	// Options tunes the flow.
	Options *FlowOptions `json:"options,omitempty"`
	// TimeoutMs bounds this request's flow wall-clock (0 means the
	// server default; values above the server maximum are clamped).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// IncludeNetlist asks for the tailored netlist's canonical binary
	// encoding (base64) in the response.
	IncludeNetlist bool `json:"include_netlist,omitempty"`
}

// ProgramSpec is one application in a multi-program request.
type ProgramSpec struct {
	Source   string    `json:"source,omitempty"`
	Image    *Image    `json:"image,omitempty"`
	Workload *Workload `json:"workload,omitempty"`
}

// Image is a raw program image.
type Image struct {
	// Origin is the load address of the first byte.
	Origin uint16 `json:"origin"`
	// Data is the base64-encoded little-endian image.
	Data string `json:"data"`
}

// Workload mirrors core.Workload in wire-friendly form.
type Workload struct {
	// RAM preloads words: decimal-string byte address -> value. Every
	// address must be even and inside data RAM (core.Workload.Validate).
	RAM map[string]uint16 `json:"ram,omitempty"`
	// P1 and IRQ drive input pins at given cycles.
	P1  []P1Step  `json:"p1,omitempty"`
	IRQ []IRQStep `json:"irq,omitempty"`
	// MaxCycles bounds the concrete run (0 = flow default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// P1Step drives the P1 input port to Value at cycle At.
type P1Step struct {
	At    uint64 `json:"at"`
	Value uint16 `json:"value"`
}

// IRQStep drives interrupt line Line to Level at cycle At.
type IRQStep struct {
	At    uint64 `json:"at"`
	Line  int    `json:"line"`
	Level bool   `json:"level"`
}

// FlowOptions is the wire subset of core.Options (custom cell libraries
// are not content-addressable and therefore not servable).
type FlowOptions struct {
	// MaxCycles bounds the symbolic analysis (0 = default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// MergeThreshold tunes state merging (0 = default).
	MergeThreshold int `json:"merge_threshold,omitempty"`
	// ClockPs overrides the clock period (0 = derive from baseline).
	ClockPs float64 `json:"clock_ps,omitempty"`
	// Prove enables the formal gate (SAT proofs of every cut constant
	// plus the base-vs-bespoke miter).
	Prove bool `json:"prove,omitempty"`
	// ProveBudget caps solver conflicts per query when Prove is set.
	ProveBudget int64 `json:"prove_budget,omitempty"`
	// Resilience enables the SET-campaign signoff stage: seeded
	// combinational transient injections on the baseline and bespoke
	// designs, aggregated into per-module vulnerability maps.
	Resilience bool `json:"resilience,omitempty"`
	// ResilienceFaults is the number of SET injections per design when
	// Resilience is set (0 = default, 64).
	ResilienceFaults int `json:"resilience_faults,omitempty"`
	// ResilienceSeed drives the campaign's (site, cycle) sampling.
	ResilienceSeed uint64 `json:"resilience_seed,omitempty"`
	// ResilienceMaxVisible is the tolerated fraction of architecturally
	// visible injections on the bespoke design: 0 means report-only
	// (budget 1.0); a negative value means zero tolerance.
	ResilienceMaxVisible float64 `json:"resilience_max_visible,omitempty"`
}

// Response is the POST /v1/tailor success body.
type Response struct {
	// Source says how the request was served: "cold" (a full flow run),
	// "memory" (in-memory cache hit), "disk" (on-disk cache hit) or
	// "coalesced" (shared another request's in-flight cold run).
	Source string `json:"source"`
	// Key is the request's content-addressed cache key (hex).
	Key string `json:"key"`
	// ElapsedMs is the server-side latency of this request.
	ElapsedMs float64 `json:"elapsed_ms"`

	Baseline DesignPoint `json:"baseline"`
	Bespoke  DesignPoint `json:"bespoke"`
	// PowerAtVminUW is the bespoke design's power at the reduced supply
	// its exposed slack allows.
	PowerAtVminUW float64 `json:"power_at_vmin_uw"`
	Savings       Savings `json:"savings"`

	Analysis AnalysisStats `json:"analysis"`
	Cut      CutStats      `json:"cut"`
	Synth    SynthStats    `json:"synth"`
	// Proofs summarizes the formal gate per program when options.prove
	// was set.
	Proofs []ProofStats `json:"proofs,omitempty"`
	// Resilience carries the SET-campaign vulnerability maps when
	// options.resilience was set.
	Resilience *ResilienceStats `json:"resilience,omitempty"`

	// NetlistB64 is the tailored netlist's canonical binary encoding
	// when include_netlist was set (decode with internal/netlist).
	NetlistB64 string `json:"netlist_b64,omitempty"`
}

// DesignPoint is one signoff point.
type DesignPoint struct {
	Gates      int     `json:"gates"`
	Dffs       int     `json:"dffs"`
	AreaUm2    float64 `json:"area_um2"`
	PowerUW    float64 `json:"power_uw"`
	CriticalPs float64 `json:"critical_ps"`
	Vmin       float64 `json:"vmin"`
}

// Savings are the headline ratios (fractions, 0..1).
type Savings struct {
	Gates     float64 `json:"gates"`
	Area      float64 `json:"area"`
	Power     float64 `json:"power"`
	PowerVmin float64 `json:"power_vmin"`
}

// AnalysisStats summarizes the symbolic activity analysis.
type AnalysisStats struct {
	Paths  int    `json:"paths"`
	Merges int    `json:"merges"`
	Cycles uint64 `json:"cycles"`
}

// CutStats mirrors cut.Stats.
type CutStats struct {
	Cut  int `json:"cut"`
	Kept int `json:"kept"`
}

// SynthStats mirrors synth.Stats.
type SynthStats struct {
	Folded    int `json:"folded"`
	Collapsed int `json:"collapsed"`
	Dead      int `json:"dead"`
	Passes    int `json:"passes"`
}

// ProofStats summarizes one program's formal verification outcome.
type ProofStats struct {
	Program          int  `json:"program"`
	ProvedStructural int  `json:"proved_structural"`
	ProvedSAT        int  `json:"proved_sat"`
	Assumed          int  `json:"assumed"`
	Refuted          int  `json:"refuted"`
	MiterEquivalent  bool `json:"miter_equivalent"`
}

// ResilienceStats is the wire form of core.ResilienceReport: the same
// seeded SET campaign on both designs.
type ResilienceStats struct {
	Faults   int       `json:"faults"`
	Seed     uint64    `json:"seed"`
	Baseline VulnPoint `json:"baseline"`
	Bespoke  VulnPoint `json:"bespoke"`
}

// VulnPoint is one design's SET vulnerability aggregate.
type VulnPoint struct {
	Sites       int          `json:"sites"`
	Injected    int          `json:"injected"`
	Masked      int          `json:"masked"`
	Latched     int          `json:"latched"`
	Visible     int          `json:"visible"`
	VisibleFrac float64      `json:"visible_frac"`
	Modules     []ModuleVuln `json:"modules,omitempty"`
}

// ModuleVuln is one module's row in a vulnerability map.
type ModuleVuln struct {
	Module   string `json:"module"`
	Sites    int    `json:"sites"`
	Injected int    `json:"injected"`
	Masked   int    `json:"masked"`
	Latched  int    `json:"latched"`
	Visible  int    `json:"visible"`
}

// ErrorBody is the JSON error envelope for every non-2xx status.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the structured failure: Kind is machine-readable,
// Message human-readable, and the typed sections are filled when the
// underlying cause carries them.
type ErrorDetail struct {
	// Status is the HTTP status sent with this body.
	Status int `json:"status"`
	// Kind classifies the failure: "bad-request", "queue-full",
	// "deadline", "client-gone", "lint", "limit", "proof", "resilience",
	// "flow" or "internal".
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Stage is the flow pipeline stage that failed, when known.
	Stage string `json:"stage,omitempty"`
	// Gate is the offending gate (-1 when not localized).
	Gate int `json:"gate,omitempty"`
	// RetryAfterMs accompanies "queue-full" (the Retry-After header in
	// milliseconds).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Lint lists the findings for "lint" failures.
	Lint []LintFinding `json:"lint,omitempty"`
	// Limit carries the analysis watchdog's partial progress for
	// "limit" failures.
	Limit *LimitDetail `json:"limit,omitempty"`
	// Proof carries the refutation for "proof" failures.
	Proof *ProofDetail `json:"proof,omitempty"`
	// Resilience carries the budget violation (and the campaign report
	// when one ran) for "resilience" failures.
	Resilience *ResilienceDetail `json:"resilience,omitempty"`
}

// LintFinding is one static-analysis finding.
type LintFinding struct {
	Analyzer string `json:"analyzer"`
	Gate     int    `json:"gate"`
	Detail   string `json:"detail"`
}

// LimitDetail is the symexec watchdog's partial progress.
type LimitDetail struct {
	Reason    string `json:"reason"`
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	Cycles    uint64 `json:"cycles"`
	Paths     int    `json:"paths"`
	Sites     int    `json:"sites"`
	Merges    int    `json:"merges"`
	Pending   int    `json:"pending"`
}

// ProofDetail is a refuted cut constant.
type ProofDetail struct {
	Gate    int    `json:"gate"`
	Name    string `json:"name"`
	Claimed string `json:"claimed"`
	Refuted int    `json:"refuted"`
}

// ResilienceDetail is a resilience signoff rejection.
type ResilienceDetail struct {
	Reason string `json:"reason"`
	// Budget is the configured visible-fraction budget.
	Budget float64 `json:"budget"`
	// VisibleFrac is the bespoke design's observed visible fraction.
	VisibleFrac float64 `json:"visible_frac"`
	// WorstModule names the bespoke module with the highest visible
	// fraction ("" when no campaign report is attached).
	WorstModule string `json:"worst_module,omitempty"`
	// Report is the full campaign outcome when the campaign ran.
	Report *ResilienceStats `json:"report,omitempty"`
}

// compile translates the wire request into flow inputs. Errors are
// client errors (bad request).
func (r *Request) compile() ([]*asm.Program, []*core.Workload, core.Options, error) {
	var opts core.Options
	if o := r.Options; o != nil {
		opts.Sym = symexec.Options{MaxCycles: o.MaxCycles, MergeThreshold: o.MergeThreshold}
		opts.ClockPs = o.ClockPs
		opts.Prove = o.Prove
		if o.ProveBudget != 0 {
			opts.ProveOpts.QueryBudget = o.ProveBudget
		}
		if o.Resilience {
			opts.Resilience = &core.ResilienceOptions{
				Faults:     o.ResilienceFaults,
				Seed:       o.ResilienceSeed,
				MaxVisible: o.ResilienceMaxVisible,
				Run:        faultinject.TailorGate,
			}
		}
	}
	specs := r.Programs
	if r.Source != "" || r.Image != nil {
		if len(specs) > 0 {
			return nil, nil, opts, fmt.Errorf("request sets both programs and a top-level source/image")
		}
		specs = []ProgramSpec{{Source: r.Source, Image: r.Image, Workload: r.Workload}}
	} else if r.Workload != nil && len(specs) > 0 {
		return nil, nil, opts, fmt.Errorf("top-level workload is only valid with a top-level source/image; put workloads inside programs")
	}
	if len(specs) == 0 {
		return nil, nil, opts, fmt.Errorf("request has no program (set source, image or programs)")
	}
	progs := make([]*asm.Program, 0, len(specs))
	ws := make([]*core.Workload, 0, len(specs))
	for i, sp := range specs {
		p, err := sp.program()
		if err != nil {
			return nil, nil, opts, fmt.Errorf("program %d: %w", i, err)
		}
		w, err := sp.Workload.compile()
		if err != nil {
			return nil, nil, opts, fmt.Errorf("program %d: %w", i, err)
		}
		progs = append(progs, p)
		ws = append(ws, w)
	}
	return progs, ws, opts, nil
}

func (sp *ProgramSpec) program() (*asm.Program, error) {
	switch {
	case sp.Source != "" && sp.Image != nil:
		return nil, fmt.Errorf("both source and image set")
	case sp.Source != "":
		p, err := asm.Assemble(sp.Source)
		if err != nil {
			return nil, fmt.Errorf("assembling: %w", err)
		}
		return p, nil
	case sp.Image != nil:
		data, err := base64.StdEncoding.DecodeString(sp.Image.Data)
		if err != nil {
			return nil, fmt.Errorf("decoding image: %w", err)
		}
		if len(data) == 0 {
			return nil, fmt.Errorf("empty image")
		}
		return &asm.Program{Origin: sp.Image.Origin, Bytes: data}, nil
	default:
		return nil, fmt.Errorf("neither source nor image set")
	}
}

func (w *Workload) compile() (*core.Workload, error) {
	if w == nil {
		return nil, nil
	}
	out := &core.Workload{MaxCycles: w.MaxCycles}
	if len(w.RAM) > 0 {
		out.RAM = make(map[uint16]uint16, len(w.RAM))
		for k, v := range w.RAM {
			addr, err := strconv.ParseUint(k, 0, 16)
			if err != nil {
				return nil, fmt.Errorf("ram address %q: %w", k, err)
			}
			out.RAM[uint16(addr)] = v
		}
	}
	for _, s := range w.P1 {
		out.P1 = append(out.P1, core.P1Step{At: s.At, Value: s.Value})
	}
	for _, s := range w.IRQ {
		out.IRQ = append(out.IRQ, core.IRQStep{At: s.At, Line: s.Line, Level: s.Level})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// WireWorkload converts a flow workload to its wire form (the load
// generator and tests build requests from the benchmark catalog).
func WireWorkload(w *core.Workload) *Workload {
	if w == nil {
		return nil
	}
	out := &Workload{MaxCycles: w.MaxCycles}
	if len(w.RAM) > 0 {
		out.RAM = make(map[string]uint16, len(w.RAM))
		for a, v := range w.RAM {
			out.RAM[strconv.FormatUint(uint64(a), 10)] = v
		}
	}
	for _, s := range w.P1 {
		out.P1 = append(out.P1, P1Step{At: s.At, Value: s.Value})
	}
	for _, s := range w.IRQ {
		out.IRQ = append(out.IRQ, IRQStep{At: s.At, Line: s.Line, Level: s.Level})
	}
	return out
}

// buildResponse renders a flow result.
func buildResponse(res *core.Result, key core.Key, source string, elapsedMs float64, includeNetlist bool) *Response {
	out := &Response{
		Source:    source,
		Key:       key.String(),
		ElapsedMs: elapsedMs,
		Baseline:  designPoint(res.Baseline),
		Bespoke:   designPoint(res.Bespoke),
		Savings: Savings{
			Gates:     res.GateSavings,
			Area:      res.AreaSavings,
			Power:     res.PowerSavings,
			PowerVmin: res.PowerSavingsVmin,
		},
		PowerAtVminUW: res.BespokeAtVmin.TotalUW,
		Cut:           CutStats{Cut: res.CutStats.Cut, Kept: res.CutStats.Kept},
		Synth: SynthStats{
			Folded:    res.SynthStats.Folded,
			Collapsed: res.SynthStats.Collapsed,
			Dead:      res.SynthStats.Dead,
			Passes:    res.SynthStats.Passes,
		},
	}
	if a := res.Analysis; a != nil {
		out.Analysis = AnalysisStats{Paths: a.Paths, Merges: a.Merges, Cycles: a.Cycles}
	}
	for _, pr := range res.Proofs {
		ps := ProofStats{Program: pr.Program}
		if pr.Claims != nil {
			ps.ProvedStructural = pr.Claims.ProvedStructural
			ps.ProvedSAT = pr.Claims.ProvedSAT
			ps.Assumed = pr.Claims.Assumed
			ps.Refuted = pr.Claims.Refuted
		}
		if pr.Miter != nil {
			ps.MiterEquivalent = pr.Miter.Equivalent
		}
		out.Proofs = append(out.Proofs, ps)
	}
	if res.Resilience != nil {
		out.Resilience = wireResilience(res.Resilience)
	}
	if includeNetlist && res.BespokeCore != nil {
		out.NetlistB64 = base64.StdEncoding.EncodeToString(netlist.Encode(res.BespokeCore.N))
	}
	return out
}

func wireResilience(rep *core.ResilienceReport) *ResilienceStats {
	return &ResilienceStats{
		Faults:   rep.Faults,
		Seed:     rep.Seed,
		Baseline: vulnPoint(rep.Baseline),
		Bespoke:  vulnPoint(rep.Bespoke),
	}
}

func vulnPoint(d core.DesignVuln) VulnPoint {
	out := VulnPoint{
		Sites:       d.Sites,
		Injected:    d.Injected,
		Masked:      d.Masked,
		Latched:     d.Latched,
		Visible:     d.Visible,
		VisibleFrac: d.VisibleFrac(),
	}
	for _, m := range d.Modules {
		out.Modules = append(out.Modules, ModuleVuln{
			Module:   m.Module,
			Sites:    m.Sites,
			Injected: m.Injected,
			Masked:   m.Masked,
			Latched:  m.Latched,
			Visible:  m.Visible,
		})
	}
	return out
}

func designPoint(m core.Metrics) DesignPoint {
	return DesignPoint{
		Gates:      m.Gates,
		Dffs:       m.Dffs,
		AreaUm2:    m.Power.AreaUm2,
		PowerUW:    m.Power.TotalUW,
		CriticalPs: m.Timing.CriticalPs,
		Vmin:       m.Timing.Vmin,
	}
}
