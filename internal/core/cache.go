package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"bespoke/internal/asm"
	"bespoke/internal/cpu"
	"bespoke/internal/netlist"
)

// Key is the content address of one tailoring flow input: the SHA-256 of
// the base netlist's canonical binary encoding, the program images, the
// analysis options and the workload stimuli. Two flows share a key only
// when their whole input is byte-identical, so a key is safe to use as a
// coalescing token and as an on-disk cache filename.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk entry filename).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Source says where a cache-served result came from.
type Source int

const (
	// SourceCold is a full flow run (a cache miss).
	SourceCold Source = iota
	// SourceMemory is a hit in the in-memory LRU.
	SourceMemory
	// SourceDisk is a hit rehydrated from the on-disk cache.
	SourceDisk
)

func (s Source) String() string {
	switch s {
	case SourceCold:
		return "cold"
	case SourceMemory:
		return "memory"
	case SourceDisk:
		return "disk"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// CacheStats is a point-in-time snapshot of cache effectiveness and
// occupancy.
type CacheStats struct {
	// Hits and Misses count in-memory lookups. A disk hit counts as a
	// memory miss plus a disk hit.
	Hits, Misses int
	// Entries and Bytes are the current in-memory occupancy (Bytes is
	// the sum of entry sizes: encoded netlist plus an estimate of the
	// retained analysis metadata).
	Entries int
	Bytes   int64
	// Evictions counts entries dropped by the LRU caps.
	Evictions int
	// DiskHits, DiskWrites and DiskErrors count backing-store traffic
	// when a disk cache is layered under this one. A corrupt or
	// version-skewed disk entry counts as a DiskError and is treated as
	// a miss (and best-effort removed), never as a failure of the
	// request itself.
	DiskHits, DiskWrites, DiskErrors int
	// DiskSwept is the number of orphaned temp files (Puts interrupted
	// by a crash) the disk layer removed when it was opened.
	DiskSwept int
}

// CacheConfig bounds a TailorCache and optionally layers it over a
// persistent on-disk store.
type CacheConfig struct {
	// MaxEntries caps the number of in-memory entries (<= 0 means the
	// default, 512).
	MaxEntries int
	// MaxBytes caps the summed in-memory entry sizes (<= 0 means the
	// default, 512 MiB). The most recently inserted entry is never
	// evicted, so a single oversized entry still serves its hits.
	MaxBytes int64
	// Disk, when non-nil, is the persistent layer: probed on memory
	// misses and written through on cold runs, so warm state survives
	// restarts and is shared by every cache pointed at the directory.
	Disk *DiskTailorCache
}

const (
	defaultMaxEntries = 512
	defaultMaxBytes   = 512 << 20
)

// TailorCache memoizes tailoring flows by content address (see Key).
//
// A hit skips analysis, cutting, re-synthesis and both signoff runs:
// the bespoke netlist is decoded from its cached encoding and wrapped in
// the base core's observation map (elaboration is deterministic and cut
// and re-synthesis stitch gates in place, so gate IDs line up), which
// keeps the returned cores fully executable and independent between
// hits. Metric structs and the analysis result are shared with earlier
// returns and must be treated as read-only.
//
// The in-memory side is a bounded LRU; an optional DiskTailorCache
// underneath persists entries across restarts. The zero value is not
// usable; create with NewTailorCache or NewTailorCacheWith. All methods
// are safe for concurrent use.
type TailorCache struct {
	mu      sync.Mutex
	byKey   map[Key]*list.Element // of *cacheEntry
	lru     *list.List            // front = most recent
	stats   CacheStats
	maxEnts int
	maxByts int64
	disk    *DiskTailorCache
}

// baseKeyState is the SHA-256 state after hashing the canonical encoding
// of the base core's netlist, the first input of every Key. Each Key
// resumes from it instead of hashing the encoding again.
var baseKeyState = sync.OnceValues(func() ([]byte, error) {
	h := sha256.New()
	h.Write(netlist.Encode(cpu.Base().N))
	return h.(encoding.BinaryMarshaler).MarshalBinary()
})

type cacheEntry struct {
	key        Key
	bespokeBin []byte // canonical encoding of the tailored netlist
	result     Result // cores nulled out; rebuilt per hit
}

// size estimates the entry's memory footprint for the MaxBytes cap: the
// encoded netlist dominates, plus the retained analysis vectors.
func (e *cacheEntry) size() int64 {
	sz := int64(len(e.bespokeBin)) + 512
	if a := e.result.Analysis; a != nil {
		sz += int64(len(a.Toggled)) + int64(len(a.ConstVal))
		for i := range a.BusDomains {
			sz += int64(len(a.BusDomains[i].Words))*4 + 64
		}
	}
	return sz
}

// NewTailorCache returns an empty cache with default bounds and no disk
// layer.
func NewTailorCache() *TailorCache { return NewTailorCacheWith(CacheConfig{}) }

// NewTailorCacheWith returns an empty cache with the given bounds and
// optional disk layer.
func NewTailorCacheWith(cfg CacheConfig) *TailorCache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = defaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxBytes
	}
	tc := &TailorCache{
		byKey:   map[Key]*list.Element{},
		lru:     list.New(),
		maxEnts: cfg.MaxEntries,
		maxByts: cfg.MaxBytes,
		disk:    cfg.Disk,
	}
	if cfg.Disk != nil {
		tc.stats.DiskSwept = cfg.Disk.Swept()
	}
	return tc
}

// Stats returns a snapshot of the cache counters and occupancy.
func (tc *TailorCache) Stats() CacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.stats
}

// Tailor is Tailor routed through the cache.
func (tc *TailorCache) Tailor(ctx context.Context, prog *asm.Program, w *Workload, opts Options) (*Result, error) {
	res, _, err := tc.TailorTraced(ctx, []*asm.Program{prog}, []*Workload{w}, opts)
	return res, err
}

// TailorMulti is TailorMulti routed through the cache.
func (tc *TailorCache) TailorMulti(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options) (*Result, error) {
	res, _, err := tc.TailorTraced(ctx, progs, ws, opts)
	return res, err
}

// TailorTraced is TailorMulti through the cache, additionally reporting
// where the result came from (memory, disk or a cold flow run). A
// serving layer uses the Source to label responses and meter hit rates.
func (tc *TailorCache) TailorTraced(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options) (*Result, Source, error) {
	key, err := tc.Key(progs, ws, opts)
	if err != nil {
		return nil, SourceCold, err
	}
	if res, src, ok, err := tc.probe(ctx, key, progs, true); ok || err != nil {
		return res, src, err
	}

	res, err := tailor(ctx, progs, ws, opts, false)
	if err != nil {
		return nil, SourceCold, err
	}
	stored := *res
	stored.BespokeCore = nil
	stored.BaselineCore = nil
	ent := &cacheEntry{
		key:        key,
		bespokeBin: netlist.Encode(res.BespokeCore.N),
		result:     stored,
	}
	tc.mu.Lock()
	tc.insertLocked(ent)
	tc.mu.Unlock()
	if tc.disk != nil {
		// Write-through happens outside the lock: file IO must not
		// stall concurrent lookups.
		derr := tc.disk.Put(key, ent)
		tc.mu.Lock()
		if derr != nil {
			tc.stats.DiskErrors++
		} else {
			tc.stats.DiskWrites++
		}
		tc.mu.Unlock()
	}
	return res, SourceCold, nil
}

// Probe looks the flow input up in the memory and disk layers without
// ever running the flow: ok reports whether a rehydrated result is
// being returned. A serving layer uses Probe for its fast path, then
// coalesces concurrent cold runs before calling Tailor.
//
// A miss is not counted against the miss statistics (only a Tailor call
// that actually falls through to the flow counts), so Probe-then-Tailor
// does not double-count.
func (tc *TailorCache) Probe(ctx context.Context, progs []*asm.Program, ws []*Workload, opts Options) (*Result, Source, bool, error) {
	key, err := tc.Key(progs, ws, opts)
	if err != nil {
		return nil, SourceCold, false, err
	}
	res, src, ok, err := tc.probe(ctx, key, progs, false)
	if !ok && err == nil {
		return nil, SourceCold, false, nil
	}
	return res, src, ok, err
}

// probe is the shared lookup path. countMiss says whether a miss should
// be recorded in the stats (true only on the Tailor path, which will go
// on to run the flow).
func (tc *TailorCache) probe(ctx context.Context, key Key, progs []*asm.Program, countMiss bool) (*Result, Source, bool, error) {
	tc.mu.Lock()
	if el, hit := tc.byKey[key]; hit {
		tc.lru.MoveToFront(el)
		tc.stats.Hits++
		ent := el.Value.(*cacheEntry)
		tc.mu.Unlock()
		res, err := tc.rehydrate(ctx, ent, progs[0])
		return res, SourceMemory, true, err
	}
	if countMiss {
		tc.stats.Misses++
	}
	disk := tc.disk
	tc.mu.Unlock()

	if disk == nil {
		return nil, SourceCold, false, nil
	}
	ent, ok, derr := disk.Get(key)
	if derr != nil {
		// A corrupt, truncated or version-skewed entry must never fail
		// the request: count it, drop the file, fall through to cold.
		tc.mu.Lock()
		tc.stats.DiskErrors++
		tc.mu.Unlock()
		_ = disk.Remove(key)
		return nil, SourceCold, false, nil
	}
	if !ok {
		return nil, SourceCold, false, nil
	}
	ent.key = key
	res, err := tc.rehydrate(ctx, ent, progs[0])
	if err != nil {
		// The entry decoded but its netlist failed the lint gate (or no
		// longer matches this build): poison, same treatment.
		tc.mu.Lock()
		tc.stats.DiskErrors++
		tc.mu.Unlock()
		_ = disk.Remove(key)
		return nil, SourceCold, false, nil
	}
	tc.mu.Lock()
	tc.stats.DiskHits++
	tc.insertLocked(ent)
	tc.mu.Unlock()
	return res, SourceDisk, true, nil
}

// insertLocked adds ent at the front of the LRU and evicts from the back
// until both caps hold again. The entry just inserted is never evicted.
func (tc *TailorCache) insertLocked(ent *cacheEntry) {
	if el, dup := tc.byKey[ent.key]; dup {
		// Another goroutine cached the same key while this flow ran;
		// keep the incumbent (results are equivalent by construction).
		tc.lru.MoveToFront(el)
		return
	}
	el := tc.lru.PushFront(ent)
	tc.byKey[ent.key] = el
	tc.stats.Entries++
	tc.stats.Bytes += ent.size()
	for tc.stats.Entries > tc.maxEnts || tc.stats.Bytes > tc.maxByts {
		back := tc.lru.Back()
		if back == nil || back == el {
			break
		}
		victim := tc.lru.Remove(back).(*cacheEntry)
		delete(tc.byKey, victim.key)
		tc.stats.Entries--
		tc.stats.Bytes -= victim.size()
		tc.stats.Evictions++
	}
}

// Key computes the content address of one flow input (see Key). Custom
// cell libraries are not content-addressable, so they are rejected
// rather than risking a false hit.
func (tc *TailorCache) Key(progs []*asm.Program, ws []*Workload, opts Options) (Key, error) {
	var zero Key
	if len(progs) == 0 {
		return zero, fmt.Errorf("core: no programs")
	}
	if opts.Lib != nil {
		return zero, fmt.Errorf("core: TailorCache does not support custom cell libraries")
	}
	state, err := baseKeyState()
	if err != nil {
		return zero, err
	}
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		return zero, err
	}

	var num [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(num[:], v)
		h.Write(num[:])
	}
	u64(uint64(len(progs)))
	for _, p := range progs {
		if p == nil {
			return zero, fmt.Errorf("core: nil program")
		}
		u64(uint64(p.Origin))
		u64(uint64(len(p.Bytes)))
		h.Write(p.Bytes)
	}
	u64(opts.Sym.MaxCycles)
	u64(uint64(opts.Sym.WatchGate))
	u64(uint64(opts.Sym.MergeThreshold))
	u64(uint64(int64(opts.ClockPs * 1e3)))
	// The formal gate changes the result (Proofs, and RecordDomains
	// forced on), so proved and unproved runs must not share an entry;
	// likewise the resilience gate (Resilience report, and a run that
	// passed one budget may fail another).
	flags := uint64(0)
	if opts.Induct { // mirror Tailor's normalization: Induct implies Prove
		opts.Prove = true
	}
	if opts.Prove {
		flags |= 1
	}
	if opts.Sym.RecordDomains {
		flags |= 2
	}
	if opts.Resilience != nil {
		flags |= 4
	}
	// The inductive strengthening changes the persisted proofs (verdicts,
	// provenance, Assumed counts), so strengthened and plain runs must
	// not share an entry; the ladder depth changes what gets proved.
	if opts.Induct {
		flags |= 8
	}
	u64(flags)
	u64(uint64(opts.ProveOpts.QueryBudget))
	u64(uint64(opts.InductK))
	if ro := opts.Resilience; ro != nil {
		// Workers is fan-out width only (campaigns are deterministic
		// regardless), and Run is fixed by convention (TailorGate), so
		// neither enters the key.
		u64(uint64(ro.Faults))
		u64(ro.Seed)
		u64(ro.MaxCycles)
		u64(uint64(int64(ro.MaxVisible * 1e6)))
	}

	u64(uint64(len(ws)))
	for _, w := range ws {
		if w == nil {
			u64(0)
			continue
		}
		u64(1)
		addrs := make([]uint16, 0, len(w.RAM))
		for a := range w.RAM {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		u64(uint64(len(addrs)))
		for _, a := range addrs {
			u64(uint64(a))
			u64(uint64(w.RAM[a]))
		}
		u64(uint64(len(w.P1)))
		for _, s := range w.P1 {
			u64(s.At)
			u64(uint64(s.Value))
		}
		u64(uint64(len(w.IRQ)))
		for _, s := range w.IRQ {
			u64(s.At)
			u64(uint64(s.Line))
			if s.Level {
				u64(1)
			} else {
				u64(0)
			}
		}
		u64(w.MaxCycles)
	}
	var key Key
	h.Sum(key[:0])
	return key, nil
}

// rehydrate turns a cache entry back into a full Result with live cores.
// The decoded netlist is linted before being handed out: the codec has
// its own integrity checks, but lint additionally catches a stored
// encoding that is well-formed yet structurally wrong (the same gate the
// cold flow applies before caching).
func (tc *TailorCache) rehydrate(ctx context.Context, ent *cacheEntry, prog *asm.Program) (*Result, error) {
	n, err := netlist.Decode(ent.bespokeBin)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt cached netlist: %w", err)
	}
	// Cut and re-synthesis mutate gates without renumbering them, so the
	// decoded netlist itself becomes the bespoke core's and every wire and
	// macro pin the base core recorded stays valid.
	bespoke, err := cpu.BaseWith(n)
	if err != nil {
		return nil, fmt.Errorf("core: cached netlist: %w", err)
	}
	bespoke.LoadProgram(prog.Bytes, prog.Origin)
	baseline := cpu.Base()
	baseline.LoadProgram(prog.Bytes, prog.Origin)

	if lerr := lintGate(ctx, bespoke); lerr != nil {
		gate := netlist.None
		var le *LintError
		if errors.As(lerr, &le) {
			gate = le.Gate()
		}
		return nil, stageErr("lint", gate, fmt.Errorf("core: cached netlist: %w", lerr))
	}

	res := ent.result
	res.BaselineCore = baseline
	res.BespokeCore = bespoke
	return &res, nil
}
