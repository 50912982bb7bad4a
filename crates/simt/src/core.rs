//! The SIMT core: warps + GTO schedulers + coalescer + private L1.
//!
//! A core is self-contained: it talks to the memory system only through
//! its egress queue (`pop_request`) and `receive`.

use crate::ccws::{CcwsParams, CcwsThrottle};
use crate::inst::{InstStream, Op};
use crate::pending::{PendingLoad, PendingTable};
use crate::scheduler::{GtoScheduler, ScanOrder};
use crate::warp::{LineSlab, StructNeed, Warp, WarpIssueState};
use gpu_mem::cache::{Cache, CacheCounters, Lookup};
use gpu_mem::req::{AccessKind, MemRequest, ReqId};
use gpu_types::bits::BitWalk;
use gpu_types::{AppId, CoreId, FxHashMap, GpuConfig, TlpLevel};
use std::collections::VecDeque;

/// Entries in a core's egress queue toward the request network. One
/// instruction's transactions enter it together, so an instruction with
/// more coalesced lines than this could never issue:
/// [`CoreParams::max_txn_per_inst`] may not exceed it.
pub const EGRESS_CAPACITY: usize = 16;

/// Per-application tuning of a core's warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// Outstanding-load tolerance per warp (dependency distance of the
    /// application's code).
    pub max_outstanding_loads: usize,
    /// Upper bound on transactions one instruction may generate after
    /// coalescing; lines past it are dropped. At most [`EGRESS_CAPACITY`].
    /// It is the width of each warp's row of the core's line slab
    /// ([`crate::warp::LineSlab`]): a stream decodes only the lines that
    /// issue.
    pub max_txn_per_inst: usize,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            max_outstanding_loads: 2,
            max_txn_per_inst: EGRESS_CAPACITY,
        }
    }
}

/// Cumulative per-core statistics.
///
/// `mem_stall_cycles` and `idle_cycles` drive the DynCTA baseline's
/// latency-tolerance heuristic; `insts` drives IPC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles stepped.
    pub cycles: u64,
    /// Warp instructions issued.
    pub insts: u64,
    /// Cycles where no scheduler issued and at least one active warp was
    /// blocked on outstanding memory.
    pub mem_stall_cycles: u64,
    /// Cycles where no scheduler issued although a warp was ready
    /// (structural hazard: L1 MSHRs or the egress queue were full).
    pub struct_stall_cycles: u64,
    /// Cycles where no active warp could issue for any other reason
    /// (ALU latency, or all warps finished).
    pub idle_cycles: u64,
    /// Sum over cycles of the number of active warps blocked on outstanding
    /// memory — `warp_mem_wait_cycles / active_warp_cycles` is the
    /// memory-wait occupancy DynCTA's latency-tolerance heuristic reads.
    pub warp_mem_wait_cycles: u64,
    /// Sum over cycles of the number of SWL-active warp slots.
    pub active_warp_cycles: u64,
}

impl CoreStats {
    /// Fraction of active warp-cycles spent blocked on memory (0 when no
    /// warps were active).
    pub fn mem_wait_occupancy(&self) -> f64 {
        if self.active_warp_cycles == 0 {
            0.0
        } else {
            self.warp_mem_wait_cycles as f64 / self.active_warp_cycles as f64
        }
    }
}

/// Per-warp stall-reason breakdown, in warp-cycles: each cycle, every warp
/// slot of the core that did not issue is charged to exactly one bucket —
/// outside the SWL window `tlp_capped`, else blocked on memory `mem`, else
/// `exec`. A warp that issues a load and blocks on it counts as issued that
/// cycle. Recorded only while metrics are enabled
/// ([`SimtCore::set_metrics_enabled`]) and snapshotted per sampling window
/// by the `gpu_sim::metrics` registry.
///
/// Invariant: `mem + exec + barrier + tlp_capped + <issued insts>` equals
/// `warps × cycles` over any recorded stretch, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpStalls {
    /// Warp-cycles of SWL-active warps blocked on outstanding memory
    /// (counted once returned L1 hits have unblocked theirs).
    pub mem: u64,
    /// Warp-cycles of SWL-active warps not blocked on memory and not
    /// issuing (ALU latency, scheduler lost arbitration, or finished).
    pub exec: u64,
    /// Warp-cycles blocked at a barrier.  Reserved: the synthetic ISA
    /// ([`crate::Op`]) has no barrier instruction, so this is always zero —
    /// kept so the trace schema does not change when barriers land.
    pub barrier: u64,
    /// Warp-cycles of slots deactivated by the SWL/TLP limit (the paper's
    /// throttling knob) or CCWS.
    pub tlp_capped: u64,
}

impl WarpStalls {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &WarpStalls) {
        self.mem += other.mem;
        self.exec += other.exec;
        self.barrier += other.barrier;
        self.tlp_capped += other.tlp_capped;
    }

    /// Returns the accumulated counters and resets `self` — the per-window
    /// snapshot operation.
    pub fn take(&mut self) -> WarpStalls {
        std::mem::take(self)
    }

    /// Total warp-cycles across all buckets.
    pub fn total(&self) -> u64 {
        self.mem + self.exec + self.barrier + self.tlp_capped
    }
}

/// Why a sleeping core's cycles are charged: the stall classification is
/// constant over the whole quiescent stretch (it only depends on which
/// warps wait on memory, which changes only via [`SimtCore::receive`] — and
/// a receive wakes the core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SleepKind {
    /// At least one active warp is blocked on outstanding memory.
    Mem,
    /// No active warp can issue for any other reason (ALU latency or all
    /// warps finished).
    Idle,
    /// A ready warp exists but every one is structurally blocked (egress
    /// queue or L1 MSHRs full). `room` is the least free egress space at
    /// which one of them fits, counting only warps whose L1 MSHR test
    /// passes (`usize::MAX` when none does): [`SimtCore::pop_request`] — the
    /// only way egress space frees — clears the sleep once the queue has
    /// that much room, and the usual response/knob wakes clear it as well
    /// (MSHRs free only via [`SimtCore::receive`]).
    Struct { room: usize },
}

/// One SIMT core running a single application's warps, generic over
/// their stream type: the machine instantiates it over its one concrete
/// application stream (decode inlines into the issue path, warps sit flat
/// in one allocation); the default keeps mixed streams behind a box.
pub struct SimtCore<S = Box<dyn InstStream>> {
    /// This core's identity.
    pub id: CoreId,
    /// The application the core is assigned to (§II-A: exclusive core sets).
    pub app: AppId,
    /// Instruction supply per warp slot — cold, touched only at issue.
    warps: Vec<Warp<S>>,
    /// The lines of each warp's decoded memory op.
    lines: LineSlab,
    /// Issue/stall state of all warp slots — the arrays and bitsets every
    /// step reads.
    issue: WarpIssueState,
    schedulers: Vec<GtoScheduler>,
    l1: Cache,
    l1_hit_latency: u64,
    bypass_l1: bool,
    pending: PendingTable,
    /// L1 hits on their way back, `(due, id)`. The hit latency is one
    /// constant per core and `now` only advances, so pushes arrive in due
    /// order: a FIFO.
    hit_returns: VecDeque<(u64, ReqId)>,
    egress: VecDeque<MemRequest>,
    next_req: u64,
    /// CCWS-style cache-conscious throttling, when enabled: modulates an
    /// additional warp limit from lost-locality scores.
    ccws: Option<CcwsThrottle>,
    /// Owner (warp slot) of each L1-resident line, for victim attribution.
    line_owner: FxHashMap<u64, usize>,
    /// The externally requested SWL level (CCWS caps below it).
    swl_limit: usize,
    /// Sum of SWL-active warp slots across schedulers, maintained
    /// incrementally by [`SimtCore::apply_limits`] instead of being
    /// recomputed from `active_slots().len()` every cycle.
    active_slots_total: u64,
    /// When `Some((until, kind))`, a full step at any cycle strictly before
    /// `until` is proven to issue nothing and change no state besides the
    /// per-cycle counters — [`SimtCore::step`] takes a counters-only fast
    /// path. Cleared by anything that could change issue eligibility
    /// (responses, TLP/CCWS/bypass knobs).
    sleep: Option<(u64, SleepKind)>,
    /// Reused buffer for the waiters released by an L1 fill (avoids a heap
    /// allocation per response on the hot path).
    waiter_scratch: Vec<ReqId>,
    stats: CoreStats,
    /// When true, the per-warp stall breakdown below is recorded each
    /// cycle; off by default (gated like `TraceSink::enabled()`).
    metrics: bool,
    warp_stalls: WarpStalls,
}

impl<S> std::fmt::Debug for SimtCore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimtCore")
            .field("id", &self.id)
            .field("app", &self.app)
            .field("warps", &self.warps.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<S: InstStream> SimtCore<S> {
    /// Builds a core for application `app` with one instruction stream per
    /// warp slot.
    ///
    /// # Panics
    ///
    /// Panics if `streams` does not provide exactly
    /// `cfg.warps_per_core` streams, or if `params.max_txn_per_inst`
    /// exceeds [`EGRESS_CAPACITY`] (a wider instruction would struct-stall
    /// its warp forever).
    pub fn new(
        id: CoreId,
        app: AppId,
        cfg: &GpuConfig,
        params: CoreParams,
        streams: Vec<S>,
    ) -> Self {
        assert_eq!(
            streams.len(),
            cfg.warps_per_core,
            "need one instruction stream per warp slot"
        );
        assert!(
            params.max_txn_per_inst <= EGRESS_CAPACITY,
            "{app}: an instruction of {} transactions can never enter the \
             {EGRESS_CAPACITY}-entry egress queue",
            params.max_txn_per_inst
        );
        let per_sched = cfg.warps_per_scheduler();
        let schedulers = (0..cfg.schedulers_per_core)
            .map(|s| GtoScheduler::with_policy(s * per_sched..(s + 1) * per_sched, cfg.scheduler))
            .collect();
        SimtCore {
            id,
            app,
            issue: WarpIssueState::new(streams.len(), params.max_outstanding_loads),
            lines: LineSlab::new(streams.len(), params.max_txn_per_inst),
            warps: streams.into_iter().map(Warp::new).collect(),
            schedulers,
            // The L1 is private to this core's application, but counters are
            // indexed by the machine-wide AppId, so size up to it.
            l1: Cache::new(&cfg.l1, app.index() + 1),
            l1_hit_latency: cfg.l1.hit_latency as u64,
            bypass_l1: false,
            pending: PendingTable::new(),
            hit_returns: VecDeque::new(),
            egress: VecDeque::new(),
            next_req: 0,
            ccws: None,
            line_owner: FxHashMap::default(),
            swl_limit: cfg.warps_per_scheduler(),
            active_slots_total: (cfg.schedulers_per_core * cfg.warps_per_scheduler()) as u64,
            sleep: None,
            waiter_scratch: Vec::new(),
            stats: CoreStats::default(),
            metrics: false,
            warp_stalls: WarpStalls::default(),
        }
    }

    /// Enables or disables per-warp stall-reason recording.  Purely an
    /// accounting switch: it never perturbs scheduling or sleep state, so
    /// toggling it cannot change simulation results.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics = on;
    }

    /// SWL-active warps blocked on memory, as [`WarpStalls::mem`] charges
    /// them; zero while metrics are off, when nothing reads it.
    #[inline]
    fn mem_stalled_warps(&self) -> u64 {
        if self.metrics {
            self.issue.n_waiting_mem_in_window() as u64
        } else {
            0
        }
    }

    /// Charges `k` cycles' worth of warp slots to stall buckets, given
    /// that `waiting` SWL-active warps were blocked on memory before the
    /// issue stage ([`Self::mem_stalled_warps`]) and `issued` warps issued
    /// an instruction this cycle — disjoint sets, as a blocked warp cannot
    /// issue. Called from the three step paths (full, reference, idle
    /// credit — which a sleeping [`Self::step`] also takes) with identical
    /// arithmetic, so the engine-equivalence invariant (optimized ==
    /// reference, bit for bit) extends to these counters.
    #[inline]
    fn record_warp_stalls(&mut self, waiting: u64, issued: u64, k: u64) {
        if !self.metrics {
            return;
        }
        let total = self.warps.len() as u64;
        let active = self.active_slots_total;
        self.warp_stalls.mem += waiting * k;
        self.warp_stalls.tlp_capped += (total - active) * k;
        self.warp_stalls.exec += (active - waiting - issued) * k;
    }

    /// The stall breakdown accumulated since the last take (all zero
    /// unless metrics recording is enabled).
    pub fn warp_stalls(&self) -> WarpStalls {
        self.warp_stalls
    }

    /// Returns and resets the accumulated stall breakdown — the
    /// per-window snapshot operation.
    pub fn take_warp_stalls(&mut self) -> WarpStalls {
        self.warp_stalls.take()
    }

    /// Applies a TLP level to every scheduler (the SWL knob). When CCWS is
    /// enabled, the effective limit is the minimum of the two.
    pub fn set_tlp(&mut self, level: TlpLevel) {
        self.swl_limit = level.get() as usize;
        self.apply_limits();
    }

    fn apply_limits(&mut self) {
        let eff = match &self.ccws {
            Some(c) => self.swl_limit.min(c.limit()),
            None => self.swl_limit,
        };
        for s in &mut self.schedulers {
            s.set_limit(eff);
        }
        // Schedulers clamp the limit to their slot count, so re-sum the
        // actual limits rather than assuming `eff` stuck.
        self.active_slots_total = self.schedulers.iter().map(|s| s.limit() as u64).sum();
        self.issue
            .set_window(self.schedulers.iter().map(GtoScheduler::active_slots));
        self.sleep = None;
    }

    /// Enables or disables CCWS-style cache-conscious throttling.
    pub fn set_ccws(&mut self, enabled: bool) {
        if enabled && self.ccws.is_none() {
            let per_sched = self.warps.len() / self.schedulers.len();
            self.ccws = Some(CcwsThrottle::new(
                self.warps.len(),
                per_sched,
                CcwsParams::default(),
            ));
        } else if !enabled {
            self.ccws = None;
        }
        self.apply_limits();
    }

    /// True when CCWS throttling is active.
    pub fn ccws_enabled(&self) -> bool {
        self.ccws.is_some()
    }

    /// The TLP level currently applied (all schedulers share it).
    pub fn tlp(&self) -> usize {
        self.schedulers[0].limit()
    }

    /// Enables or disables L1 bypassing (Mod+Bypass baseline). Takes effect
    /// for future loads; in-flight cached loads still fill the L1.
    pub fn set_bypass_l1(&mut self, bypass: bool) {
        self.bypass_l1 = bypass;
        self.sleep = None;
    }

    /// True when L1 accesses currently bypass the cache.
    pub fn bypass_l1(&self) -> bool {
        self.bypass_l1
    }

    fn complete(&mut self, id: ReqId) {
        if let Some(p) = self.pending.remove(id) {
            self.issue.load_returned(p.warp_slot as usize);
        }
    }

    /// Delivers a load response from the interconnect.
    pub fn receive(&mut self, resp: MemRequest) {
        debug_assert_eq!(resp.core(), self.id, "response misrouted");
        // A response can make a blocked warp schedulable again.
        self.sleep = None;
        if self.pending.get(resp.id).is_some_and(|p| p.cached) {
            let mut waiters = std::mem::take(&mut self.waiter_scratch);
            let victim = self.l1.fill_into(resp.addr, &mut waiters);
            if self.ccws.is_some() {
                self.line_owner
                    .insert(resp.addr.line_index(), resp.warp_slot());
                if let Some(v) = victim {
                    if let Some(owner) = self.line_owner.remove(&v.line_index()) {
                        if let Some(ccws) = &mut self.ccws {
                            ccws.on_evict(owner, v);
                        }
                    }
                }
            }
            for &w in &waiters {
                self.complete(w);
            }
            // Defensive: the allocating request is always in the waiter list,
            // but make sure it is not leaked if the fill raced.
            self.complete(resp.id);
            waiters.clear();
            self.waiter_scratch = waiters;
        } else {
            self.complete(resp.id);
        }
    }

    /// Next outbound memory request, if the interconnect can take one.
    ///
    /// Popping frees egress space, which is one of the two conditions a
    /// struct-stalled sleep waits on — so it wakes that sleep once the room
    /// reaches what its smallest blocked instruction needs (a pop that
    /// leaves less would only re-step a core that still cannot issue).
    /// Mem/Idle sleeps don't care about egress space and stay put.
    pub fn pop_request(&mut self) -> Option<MemRequest> {
        let r = self.egress.pop_front();
        if let Some((_, SleepKind::Struct { room })) = self.sleep {
            if EGRESS_CAPACITY - self.egress.len() >= room {
                self.sleep = None;
            }
        }
        r
    }

    /// Peeks the next outbound request without removing it.
    pub fn peek_request(&self) -> Option<&MemRequest> {
        self.egress.front()
    }

    /// Free egress entries and free L1 MSHR entries (`usize::MAX` while the
    /// L1 is bypassed): the room a [`StructNeed`] must fit.
    #[inline]
    fn headroom(&self) -> (usize, usize) {
        let mshrs = if self.bypass_l1 {
            usize::MAX
        } else {
            self.l1.mshr_free()
        };
        (EGRESS_CAPACITY - self.egress.len(), mshrs)
    }

    /// True when an instruction of need `need` would pass the structural
    /// hazard test now.
    #[inline]
    fn fits_now(&self, need: StructNeed) -> bool {
        let (room, mshrs) = self.headroom();
        need.fits(room, mshrs)
    }

    /// The need of the memory op warp `slot` has decoded, a load when
    /// `load`: its lines.
    #[inline]
    fn need_of(&self, slot: usize, load: bool) -> StructNeed {
        StructNeed::new(self.lines.lines(slot).len(), load)
    }

    /// The structural hazards of warp `slot`'s decoded memory op: egress
    /// space for the worst case (all miss or bypass), and L1 MSHR headroom
    /// for a cached load. On a hazard the op's need is recorded for the
    /// retries and the result is false.
    #[inline]
    fn fits_or_block(&mut self, slot: usize, load: bool) -> bool {
        let need = self.need_of(slot, load);
        if self.fits_now(need) {
            return true;
        }
        self.issue.block_struct(slot, need);
        false
    }

    /// Issues the load warp `slot` has decoded, straight from its row of
    /// the line slab; false on a structural hazard.
    fn issue_load(&mut self, slot: usize, now: u64) -> bool {
        if !self.fits_or_block(slot, true) {
            return false;
        }
        let lines = self.lines.lines(slot);
        for &line in lines {
            let id = fresh_id(self.id, &mut self.next_req);
            let req = MemRequest::new(id, self.app, self.id, slot, line, AccessKind::Load);
            let mut cached = !self.bypass_l1;
            if self.bypass_l1 {
                self.egress.push_back(req.bypassing());
            } else {
                match self.l1.access_load(self.app, line, id) {
                    Lookup::Hit => self.hit_returns.push_back((now + self.l1_hit_latency, id)),
                    Lookup::MissToLower => {
                        if let Some(ccws) = &mut self.ccws {
                            ccws.on_miss(slot, line);
                        }
                        self.egress.push_back(req);
                    }
                    Lookup::MissMerged => {
                        if let Some(ccws) = &mut self.ccws {
                            ccws.on_miss(slot, line);
                        }
                    }
                    Lookup::Stall => {
                        // Entry headroom was checked, so this is a full
                        // *merge* list on an in-flight line. Fall back to an
                        // uncached direct request (egress space was reserved
                        // for every line of this instruction).
                        cached = false;
                        self.egress.push_back(req);
                    }
                }
            }
            let warp_slot = slot as u32;
            self.pending.insert(id, PendingLoad { warp_slot, cached });
        }
        self.issue.issue_mem(slot, now, lines.len());
        true
    }

    /// Issues the store warp `slot` has decoded.
    fn issue_store(&mut self, slot: usize, now: u64) -> bool {
        if !self.fits_or_block(slot, false) {
            return false;
        }
        for &line in self.lines.lines(slot) {
            let id = fresh_id(self.id, &mut self.next_req);
            self.egress.push_back(MemRequest::new(
                id,
                self.app,
                self.id,
                slot,
                line,
                AccessKind::Store,
            ));
        }
        self.issue.issue_mem(slot, now, 0);
        true
    }

    /// Advances the core one cycle: returns L1 hits that completed and lets
    /// each scheduler issue at most one warp instruction.
    ///
    /// When the core proved itself quiescent on a previous cycle (see
    /// [`Self::next_event`]) this charges the cycle as
    /// [`Self::credit_idle_cycles`]`(1)`, exactly what the full step would
    /// have recorded; the engine-equivalence suite checks this bit-for-bit
    /// against [`Self::step_reference`]. The machine never takes this
    /// branch (it steps a core only when its next event has come and
    /// credits skipped cycles in batch); callers that step every cycle do.
    pub fn step(&mut self, now: u64) {
        if let Some((until, _)) = self.sleep {
            if now < until {
                self.credit_idle_cycles(1);
                return;
            }
            self.sleep = None;
        }
        self.step_full(now);
    }

    /// Offers warp `slot` — ready: neither retired nor blocked on memory,
    /// its `ready_at` passed — this cycle's issue slot; true when it
    /// issued. A warp whose stream ended retires here; one that hits a
    /// structural hazard keeps its op decoded (the next peek returns it
    /// again), records the op's [`StructNeed`] for
    /// [`Self::offer_in_order`]'s gate and sets `saw_struct_block`.
    #[inline]
    fn offer(&mut self, slot: usize, now: u64, saw_struct_block: &mut bool) -> bool {
        debug_assert!(
            self.issue.ready(slot, now),
            "warp {slot} was offered before it was ready"
        );
        let ok = match self.warps[slot].peek(self.lines.row(slot)) {
            None => {
                self.issue.finish(slot);
                return false;
            }
            Some(Op::Alu { cycles }) => {
                self.issue.issue_alu(slot, now, cycles);
                true
            }
            Some(Op::Load) => self.issue_load(slot, now),
            Some(Op::Store) => self.issue_store(slot, now),
        };
        if ok {
            self.warps[slot].consume();
            self.stats.insts += 1;
        } else {
            *saw_struct_block = true;
        }
        ok
    }

    /// [`Self::offer`]s the warps of `order` in turn — the first slot tested
    /// directly, then the ready set along the walks, passing over it —
    /// until one issues; that slot, if any.
    ///
    /// Under congestion most offers are retries of a structurally blocked
    /// warp, so each goes through one byte compare first: a warp whose
    /// recorded [`StructNeed`] does not fit the current headroom is passed
    /// over (setting `saw_struct_block`, as its failing offer would) without
    /// touching its `Warp`.
    #[inline]
    fn offer_in_order(
        &mut self,
        order: ScanOrder,
        now: u64,
        saw_struct_block: &mut bool,
    ) -> Option<usize> {
        let ScanOrder { first, walks } = order;
        let mut offer = |core: &mut Self, slot: usize| {
            let need = core.issue.struct_need(slot);
            if need == StructNeed::NONE || core.fits_now(need) {
                return core.offer(slot, now, saw_struct_block);
            }
            debug_assert!(
                core.issue.ready_at(slot) <= now
                    && matches!(core.warps[slot].decoded(),
                        Some(op @ (Op::Load | Op::Store))
                            if !core.fits_now(core.need_of(slot, op == Op::Load))),
                "warp {slot} was passed over, but its offer would issue"
            );
            *saw_struct_block = true;
            false
        };
        if let Some(g) = first {
            if self.issue.is_ready(g) && offer(self, g) {
                return first;
            }
        }
        for span in walks {
            let mut walk = BitWalk::over(span);
            while let Some(slot) = self.issue.next_ready_warp(&mut walk) {
                if Some(slot) != first && offer(self, slot) {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// L1 hits whose latency elapsed wake their warps.
    fn complete_due_hits(&mut self, now: u64) {
        while let Some((_, id)) = self.hit_returns.pop_front_if(|(due, _)| *due <= now) {
            self.complete(id);
        }
    }

    /// The due cycle of the next L1 hit return, `u64::MAX` when none is
    /// on its way.
    #[inline]
    fn next_hit_return(&self) -> u64 {
        self.hit_returns.front().map_or(u64::MAX, |&(due, _)| due)
    }

    fn step_full(&mut self, now: u64) {
        self.stats.cycles += 1;
        self.issue.sync(now);
        if let Some(ccws) = &mut self.ccws {
            let before = ccws.limit();
            ccws.tick(now);
            if ccws.limit() != before {
                self.apply_limits();
            }
        }
        self.stats.warp_mem_wait_cycles += self.issue.n_waiting_mem() as u64;
        debug_assert_eq!(
            self.active_slots_total,
            self.schedulers
                .iter()
                .map(|s| s.active_slots().len() as u64)
                .sum::<u64>(),
            "incremental active-slot count diverged from the scan"
        );
        self.issue
            .debug_check(self.schedulers.iter().map(GtoScheduler::active_slots));
        self.stats.active_warp_cycles += self.active_slots_total;

        // 1. L1 hits.
        self.complete_due_hits(now);
        let waiting = self.mem_stalled_warps();

        // 2. Issue: per scheduler, offer the policy's priority order (GTO:
        //    the greedy warp, then oldest first; LRR: rotate past the last
        //    issued warp) to the ready set — skipped 64 at a time — until
        //    one issues.
        let mut issued_total = 0;
        let mut saw_struct_block = false;
        for si in 0..self.schedulers.len() {
            let order = self.schedulers[si].scan_order();
            if let Some(slot) = self.offer_in_order(order, now, &mut saw_struct_block) {
                issued_total += 1;
                self.schedulers[si].record_issue(slot);
            }
        }

        // 3. Stall classification for DynCTA-style heuristics, fused with
        //    the sleep horizon. In a no-issue cycle every ready warp was
        //    offered and either retired or hit a structural hazard, so what
        //    is left of the ready set is the struct-blocked warps. Egress
        //    and MSHR space free only via pop_request / receive, which
        //    clear the sleep, so nothing can happen before the earliest of
        //    {pending hit return, a booked warp becoming ready, the next
        //    CCWS decision} — unless an external event (receive, knob
        //    change, a pop that makes a blocked warp fit) clears the sleep
        //    first. CCWS's miss and evict events happen only on issue or
        //    receive, so its tick is the one wake source it adds.
        let decision = self
            .ccws
            .as_ref()
            .map_or(u64::MAX, CcwsThrottle::next_decision);
        if issued_total == 0 {
            let (_, mshrs) = self.headroom();
            let (mut wake_room, mut n_blocked) = (usize::MAX, 0);
            let mut blocked = BitWalk::over(0..self.warps.len());
            while let Some(slot) = self.issue.next_ready_warp(&mut blocked) {
                n_blocked += 1;
                let need = self.issue.struct_need(slot);
                debug_assert!(
                    !self.fits_now(need),
                    "a ready warp should have issued this cycle"
                );
                if need.fits(usize::MAX, mshrs) {
                    wake_room = wake_room.min(need.lines());
                }
            }
            let wake = self.issue.next_ready().min(self.next_hit_return());
            debug_assert_eq!(
                (wake, wake_room, n_blocked),
                self.horizon_by_scan(now),
                "the no-issue sleep diverged from the horizon walk at {now}"
            );
            let wake = wake.min(decision);
            let kind = if saw_struct_block {
                self.stats.struct_stall_cycles += 1;
                SleepKind::Struct { room: wake_room }
            } else if self.issue.any_waiting_mem_in_window() {
                self.stats.mem_stall_cycles += 1;
                SleepKind::Mem
            } else {
                self.stats.idle_cycles += 1;
                SleepKind::Idle
            };
            debug_assert!(wake > now, "pending wakes must lie in the future");
            self.sleep = Some((wake, kind));
        } else if !self.issue.any_ready() {
            // 4. An issuing step sleeps through `now + 1` when that step
            //    would issue nothing: no active warp is ready now, none
            //    becomes ready, no L1 hit returns and no CCWS decision
            //    falls by then. The skipped step would find no warp to
            //    offer, so it could only have classified the cycle as below
            //    and gone to sleep until the same wake; any event that
            //    could change that clears the sleep, as it would that
            //    step's.
            let wake = self.issue.next_ready().min(self.next_hit_return());
            if wake.min(decision) > now + 1 {
                debug_assert_eq!(
                    (wake, usize::MAX, 0),
                    self.horizon_by_scan(now + 1),
                    "the post-issue sleep diverged from the horizon walk at {now}"
                );
                let wake = wake.min(decision);
                let kind = if self.issue.any_waiting_mem_in_window() {
                    SleepKind::Mem
                } else {
                    SleepKind::Idle
                };
                self.sleep = Some((wake, kind));
            }
        }
        self.record_warp_stalls(waiting, issued_total, 1);
    }

    /// The sleep horizon by the walk the ready calendar replaced: every
    /// active warp neither retired nor blocked on memory tested by its
    /// `ready_at`. Returns the earliest of the next L1 hit return and the
    /// next `ready_at` after `now`; the least egress room at which a warp
    /// ready at `now` fits, counting only those whose L1 MSHR test passes
    /// (`usize::MAX` when none does); and the number of warps ready at
    /// `now`. The debug oracle of both sleep decisions in
    /// [`Self::step_full`].
    fn horizon_by_scan(&self, now: u64) -> (u64, usize, usize) {
        let mut wake = self.next_hit_return();
        let (_, mshrs) = self.headroom();
        let (mut wake_room, mut n_ready) = (usize::MAX, 0);
        for s in &self.schedulers {
            let mut slots = BitWalk::over(s.active_slots());
            while let Some(slot) = self.issue.next_issuable(&mut slots) {
                let ready_at = self.issue.ready_at(slot);
                if ready_at > now {
                    wake = wake.min(ready_at);
                    continue;
                }
                n_ready += 1;
                let need = self.issue.struct_need(slot);
                if need.fits(usize::MAX, mshrs) {
                    wake_room = wake_room.min(need.lines());
                }
            }
        }
        (wake, wake_room, n_ready)
    }

    /// Reference implementation of [`Self::step`]: the original per-cycle
    /// algorithm with no sleep fast path, every warp of every scheduler's
    /// priority order tested slot by slot from the per-warp arrays (the
    /// `mem_blocked` summary is not consulted), and the active-slot sum
    /// recomputed by scanning every cycle. It differs in how warps are
    /// *scanned*; what an offered warp does (`offer`) is shared.
    /// Kept only for differential testing (`engine_equivalence`); never
    /// used on the hot path.
    pub fn step_reference(&mut self, now: u64) {
        self.sleep = None;
        self.stats.cycles += 1;
        // The calendar is not read here, but kept: `step` may follow.
        self.issue.sync(now);
        if let Some(ccws) = &mut self.ccws {
            let before = ccws.limit();
            ccws.tick(now);
            if ccws.limit() != before {
                self.apply_limits();
            }
        }
        self.stats.warp_mem_wait_cycles += self.issue.n_waiting_mem() as u64;
        self.stats.active_warp_cycles += self
            .schedulers
            .iter()
            .map(|s| s.active_slots().len() as u64)
            .sum::<u64>();

        self.complete_due_hits(now);
        let waiting = if self.metrics {
            let active = self.schedulers.iter().flat_map(|s| s.active_slots());
            active.filter(|&slot| self.issue.waiting_mem(slot)).count() as u64
        } else {
            0
        };

        let mut issued_total = 0;
        let mut saw_struct_block = false;
        for si in 0..self.schedulers.len() {
            let n_candidates = self.schedulers[si].n_candidates();
            for k in 0..n_candidates {
                let Some(slot) = self.schedulers[si].candidate(k) else {
                    continue;
                };
                if self.issue.ready(slot, now) && self.offer(slot, now, &mut saw_struct_block) {
                    issued_total += 1;
                    self.schedulers[si].record_issue(slot);
                    break;
                }
            }
        }

        if issued_total == 0 {
            if saw_struct_block {
                self.stats.struct_stall_cycles += 1;
            } else {
                let any_waiting_mem = self
                    .schedulers
                    .iter()
                    .flat_map(|s| s.active_slots())
                    .any(|slot| self.issue.waiting_mem(slot));
                if any_waiting_mem {
                    self.stats.mem_stall_cycles += 1;
                } else {
                    self.stats.idle_cycles += 1;
                }
            }
        }
        self.record_warp_stalls(waiting, issued_total, 1);
    }

    /// The earliest cycle `>= from` at which this core must be stepped —
    /// its "next event at" contract for the event engine. Returns `from`
    /// while the core is awake (it issues or classifies a stall every
    /// cycle); the sleep horizon otherwise. `u64::MAX` means no
    /// self-scheduled wake exists: only an external event — a response
    /// delivery, an egress pop, a knob change — can create work, and the
    /// engine credits the skipped cycles in one batch via
    /// [`Self::credit_idle_cycles`] when that happens. Queued egress does
    /// NOT force per-cycle stepping: the machine drains a sleeping core's
    /// egress on its own (tracking it in an egress-pending set) and the
    /// pop wakes the core if that could change issue eligibility.
    pub fn next_event(&self, from: u64) -> u64 {
        match self.sleep {
            Some((until, _)) => until.max(from),
            None => from,
        }
    }

    /// Charges `k` cycles of quiescent time in one batch — exactly what `k`
    /// consecutive fast-path [`Self::step`] calls would have recorded. Only
    /// valid while the core is sleeping (all charged cycles must lie before
    /// the sleep horizon).
    pub fn credit_idle_cycles(&mut self, k: u64) {
        let Some((_, kind)) = self.sleep else {
            debug_assert!(false, "credit_idle_cycles on an awake core");
            return;
        };
        self.stats.cycles += k;
        self.stats.warp_mem_wait_cycles += self.issue.n_waiting_mem() as u64 * k;
        self.stats.active_warp_cycles += self.active_slots_total * k;
        match kind {
            SleepKind::Mem => self.stats.mem_stall_cycles += k,
            SleepKind::Idle => self.stats.idle_cycles += k,
            SleepKind::Struct { .. } => self.stats.struct_stall_cycles += k,
        }
        self.record_warp_stalls(self.mem_stalled_warps(), 0, k);
    }

    /// True when outbound memory requests are queued for the interconnect.
    pub fn has_egress(&self) -> bool {
        !self.egress.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// L1 counters for `app` (normally this core's own application).
    pub fn l1_counters(&self, app: AppId) -> CacheCounters {
        self.l1.counters(app)
    }

    /// True when every warp has retired and no memory is outstanding.
    pub fn is_idle(&self) -> bool {
        self.pending.len() == 0 && self.egress.is_empty() && self.issue.all_finished()
    }

    /// Loads in flight from this core.
    pub fn outstanding_loads(&self) -> usize {
        self.pending.len()
    }
}

/// The next request id of core `core`: its index above bit 40, a sequence
/// from 1 below.
#[inline]
fn fresh_id(core: CoreId, next_req: &mut u64) -> ReqId {
    *next_req += 1;
    ReqId(((core.index() as u64) << 40) | *next_req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AddrList, Inst, MAX_ALU_CYCLES};
    use crate::streams::{LoopOverSet, Scripted, Streaming};
    use gpu_types::Address;

    fn small_cfg() -> GpuConfig {
        GpuConfig::small()
    }

    fn idle_streams(cfg: &GpuConfig) -> Vec<Box<dyn InstStream>> {
        (0..cfg.warps_per_core)
            .map(|_| Box::new(Scripted::new(vec![])) as Box<dyn InstStream>)
            .collect()
    }

    fn core_with_one_stream(stream: Box<dyn InstStream>, params: CoreParams) -> SimtCore {
        let cfg = small_cfg();
        let mut streams = idle_streams(&cfg);
        streams[0] = stream;
        SimtCore::new(CoreId(0), AppId::new(0), &cfg, params, streams)
    }

    /// Run the core standalone, echoing every egress load back after
    /// `mem_latency` cycles, for `cycles` cycles. Returns final stats.
    fn run_closed_loop(core: &mut SimtCore, cycles: u64, mem_latency: u64) -> CoreStats {
        let mut returns: std::collections::VecDeque<(u64, MemRequest)> = Default::default();
        for now in 0..cycles {
            while matches!(returns.front(), Some((t, _)) if *t <= now) {
                let (_, req) = returns.pop_front().unwrap();
                core.receive(req);
            }
            core.step(now);
            while let Some(req) = core.pop_request() {
                if req.needs_response() {
                    returns.push_back((now + mem_latency, req));
                }
            }
        }
        core.stats()
    }

    #[test]
    fn alu_stream_issues_one_inst_per_cycle() {
        let insts = vec![Inst::alu1(); 10];
        let mut core = core_with_one_stream(Box::new(Scripted::new(insts)), CoreParams::default());
        let stats = run_closed_loop(&mut core, 12, 1);
        assert_eq!(stats.insts, 10);
    }

    #[test]
    fn two_schedulers_issue_in_parallel() {
        let cfg = small_cfg();
        let mut streams = idle_streams(&cfg);
        // One ALU-heavy warp per scheduler: slot 0 (scheduler 0) and the
        // first slot of scheduler 1.
        let per_sched = cfg.warps_per_scheduler();
        streams[0] = Box::new(Scripted::new(vec![Inst::alu1(); 5]));
        streams[per_sched] = Box::new(Scripted::new(vec![Inst::alu1(); 5]));
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams::default(),
            streams,
        );
        core.step(0);
        assert_eq!(
            core.stats().insts,
            2,
            "both schedulers must issue in the same cycle"
        );
    }

    #[test]
    fn load_misses_produce_requests_and_block_warp() {
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::load1(0), Inst::alu1()])),
            CoreParams {
                max_outstanding_loads: 1,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        core.step(0);
        let req = core.pop_request().expect("cold load must miss to memory");
        assert_eq!(req.kind, AccessKind::Load);
        // Warp is blocked: no further instruction issues.
        core.step(1);
        assert_eq!(core.stats().insts, 1);
        assert!(core.stats().mem_stall_cycles >= 1);
        // Return the data: the ALU instruction can now issue.
        core.receive(req);
        core.step(2);
        assert_eq!(core.stats().insts, 2);
    }

    #[test]
    fn l1_hit_completes_without_memory_traffic() {
        let mut core = core_with_one_stream(
            Box::new(LoopOverSet::new(0, 1)),
            CoreParams {
                max_outstanding_loads: 1,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        let stats = run_closed_loop(&mut core, 200, 20);
        let k = core.l1_counters(AppId::new(0));
        assert_eq!(k.misses, 1, "only the cold miss goes to memory");
        assert!(k.accesses > 10);
        assert!(stats.insts > 10);
    }

    #[test]
    fn bypass_skips_the_l1() {
        let mut core = core_with_one_stream(
            Box::new(LoopOverSet::new(0, 1)),
            CoreParams {
                max_outstanding_loads: 1,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        core.set_bypass_l1(true);
        run_closed_loop(&mut core, 200, 5);
        let k = core.l1_counters(AppId::new(0));
        assert_eq!(k.accesses, 0, "bypassed loads never touch the L1");
        assert!(
            core.stats().insts > 5,
            "warp still makes progress via direct returns"
        );
    }

    #[test]
    fn coalesced_load_generates_one_transaction() {
        let addrs: AddrList = (0..32).map(|i| Address::new(i * 4)).collect();
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::Load { addrs }])),
            CoreParams::default(),
        );
        core.step(0);
        assert!(core.pop_request().is_some());
        assert!(
            core.pop_request().is_none(),
            "32 threads in one line coalesce to 1 txn"
        );
    }

    #[test]
    fn divergent_load_generates_many_transactions() {
        let addrs: AddrList = (0..8).map(|i| Address::new(i * 128 * 1024)).collect();
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::Load { addrs }])),
            CoreParams {
                max_outstanding_loads: 8,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        core.step(0);
        let mut n = 0;
        while core.pop_request().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }

    #[test]
    fn swl_limits_active_warps() {
        let cfg = small_cfg();
        // Every warp is an infinite streaming kernel.
        let streams: Vec<Box<dyn InstStream>> = (0..cfg.warps_per_core)
            .map(|i| Box::new(Streaming::new((i as u64) << 20, 128, 0)) as Box<dyn InstStream>)
            .collect();
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams {
                max_outstanding_loads: 1,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
            streams,
        );
        core.set_tlp(TlpLevel::new(1).unwrap());
        core.step(0);
        core.step(1);
        // With TLP=1 and tolerance 1, at most one load per scheduler can be
        // outstanding.
        assert!(
            core.outstanding_loads() <= cfg.schedulers_per_core,
            "SWL failed to limit concurrency: {} outstanding",
            core.outstanding_loads()
        );
        assert_eq!(core.tlp(), 1);
    }

    #[test]
    fn stores_do_not_block_warps() {
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::store1(0), Inst::alu1()])),
            CoreParams {
                max_outstanding_loads: 1,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        core.step(0);
        core.step(1);
        assert_eq!(core.stats().insts, 2);
        let req = core.pop_request().unwrap();
        assert_eq!(req.kind, AccessKind::Store);
    }

    #[test]
    fn struct_stall_when_egress_saturated() {
        // A warp issuing highly divergent loads with huge tolerance will
        // eventually fill the 16-entry egress queue if nothing drains it.
        let addrs: AddrList = (0..32).map(|i| Address::new(i * 128 * 4096)).collect();
        let insts = vec![Inst::Load { addrs }; 4];
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(insts)),
            CoreParams {
                max_outstanding_loads: 1024,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        for now in 0..8 {
            core.step(now);
        }
        assert!(core.stats().struct_stall_cycles > 0);
    }

    /// An instruction of `n` distinct lines starting at line `first`.
    fn wide(load: bool, first: u64, n: u64) -> Inst {
        let addrs: AddrList = (first..first + n)
            .map(|l| Address::new(l * 128 * 4096))
            .collect();
        if load {
            Inst::Load { addrs }
        } else {
            Inst::Store { addrs }
        }
    }

    /// A core whose one warp issued two 8-line instructions of kind `load`
    /// into a full egress queue and then went to sleep behind a third.
    fn struct_sleeper(load: bool) -> SimtCore {
        let insts = (0..3).map(|i| wide(load, 8 * i, 8)).collect();
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(insts)),
            CoreParams {
                max_outstanding_loads: 64,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        for now in 0..3 {
            core.step(now);
        }
        assert_eq!(core.stats().insts, 2);
        assert_eq!(core.stats().struct_stall_cycles, 1);
        assert!(core.next_event(3) > 3, "a struct-stalled core sleeps");
        core
    }

    #[test]
    fn a_pop_wakes_a_struct_sleep_only_once_the_blocked_need_fits() {
        let mut core = struct_sleeper(false);
        // The third store needs 8 egress entries: seven pops leave 7.
        for _ in 0..7 {
            assert!(core.pop_request().is_some());
            assert!(core.next_event(3) > 3, "a pop short of the need woke it");
        }
        assert!(core.pop_request().is_some());
        assert_eq!(
            core.next_event(3),
            3,
            "the pop reaching the need must wake it"
        );
        core.step(3);
        assert_eq!(core.stats().insts, 3);
    }

    #[test]
    fn a_struct_sleep_blocked_on_l1_mshrs_ignores_pops() {
        // Two 8-line loads hold all 16 L1 MSHRs of the small machine, so the
        // third waits for a fill however much egress room pops make.
        let mut core = struct_sleeper(true);
        let mut sent = Vec::new();
        while let Some(req) = core.pop_request() {
            sent.push(req);
            assert!(
                core.next_event(3) > 3,
                "an egress pop woke an MSHR-bound core"
            );
        }
        assert_eq!(sent.len(), 16);
        core.receive(sent[0]);
        assert_eq!(core.next_event(3), 3, "a fill frees an MSHR and wakes it");
    }

    #[test]
    fn a_fully_divergent_load_issues_its_first_lines_only() {
        // 32 threads on 32 lines: the coalescer keeps what one instruction
        // may issue, `max_txn_per_inst` transactions, in thread order.
        let addrs: AddrList = (0..32).map(|i| Address::new(i * 128 * 4096)).collect();
        for max_txn_per_inst in [EGRESS_CAPACITY, 5] {
            let mut core = core_with_one_stream(
                Box::new(Scripted::new(vec![Inst::Load { addrs }])),
                CoreParams {
                    max_outstanding_loads: 2,
                    max_txn_per_inst,
                },
            );
            core.step(0);
            assert_eq!(core.stats().insts, 1);
            let issued: Vec<Address> = std::iter::from_fn(|| core.pop_request())
                .map(|r| r.addr)
                .collect();
            assert_eq!(issued, addrs[..max_txn_per_inst]);
            assert_eq!(core.outstanding_loads(), max_txn_per_inst);
        }
    }

    #[test]
    fn a_load_as_wide_as_the_egress_queue_issues() {
        let addrs: AddrList = (0..EGRESS_CAPACITY as u64)
            .map(|i| Address::new(i * 128 * 4096))
            .collect();
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::Load { addrs }])),
            CoreParams::default(),
        );
        core.step(0);
        assert_eq!(core.stats().insts, 1);
        assert_eq!(
            std::iter::from_fn(|| core.pop_request()).count(),
            EGRESS_CAPACITY
        );
    }

    #[test]
    #[should_panic(
        expected = "App-4: an instruction of 17 transactions can never enter the 16-entry"
    )]
    fn instructions_wider_than_the_egress_queue_are_rejected() {
        // Such a load would struct-stall its warp forever: no egress drain
        // ever makes room for it.
        let cfg = small_cfg();
        let _ = SimtCore::new(
            CoreId(0),
            AppId::new(3),
            &cfg,
            CoreParams {
                max_outstanding_loads: 2,
                max_txn_per_inst: EGRESS_CAPACITY + 1,
            },
            idle_streams(&cfg),
        );
    }

    #[test]
    fn greedy_warp_keeps_issuing() {
        let cfg = small_cfg();
        let mut streams = idle_streams(&cfg);
        streams[0] = Box::new(Scripted::new(vec![Inst::alu1(); 3]));
        streams[1] = Box::new(Scripted::new(vec![Inst::alu1(); 3]));
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams::default(),
            streams,
        );
        // Warp 0 is oldest: GTO picks it and sticks with it 3 cycles.
        core.step(0);
        core.step(1);
        core.step(2);
        assert_eq!(core.stats().insts, 3);
    }

    #[test]
    fn raising_tlp_reactivates_limited_warps() {
        let cfg = small_cfg();
        let streams: Vec<Box<dyn InstStream>> = (0..cfg.warps_per_core)
            .map(|_| Box::new(Scripted::new(vec![Inst::alu1(); 4])) as Box<dyn InstStream>)
            .collect();
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams::default(),
            streams,
        );
        core.set_tlp(TlpLevel::new(1).unwrap());
        core.step(0);
        let limited = core.stats().insts;
        assert_eq!(limited, 2, "one warp per scheduler at TLP 1");
        core.set_tlp(TlpLevel::new(8).unwrap());
        // More warps can now issue concurrently across cycles.
        core.step(1);
        core.step(2);
        assert!(core.stats().insts > limited + 2);
    }

    #[test]
    fn bypass_toggle_mid_flight_preserves_all_responses() {
        // A cached load is outstanding when bypassing turns on; its
        // response must still wake the warp through the fill path.
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::load1(0), Inst::load1(1 << 20)])),
            CoreParams {
                max_outstanding_loads: 2,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
        );
        core.step(0);
        let first = core.pop_request().expect("first load misses");
        assert!(!first.bypass_caches);
        core.set_bypass_l1(true);
        core.step(1);
        let second = core.pop_request().expect("second load issued");
        assert!(second.bypass_caches, "new loads carry the bypass flag");
        core.receive(first);
        core.receive(second);
        assert_eq!(core.outstanding_loads(), 0, "both warps woken");
    }

    #[test]
    fn ccws_throttles_a_thrashing_core() {
        // Every warp loops over its own private 8-line set (matching the
        // victim-tag depth); collectively they exceed the 4 KB
        // small-machine L1, so CCWS observes lost intra-warp locality and
        // lowers the warp limit.
        let cfg = small_cfg();
        let streams: Vec<Box<dyn InstStream>> = (0..cfg.warps_per_core)
            .map(|i| Box::new(LoopOverSet::new((i as u64) << 20, 8)) as Box<dyn InstStream>)
            .collect();
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams {
                max_outstanding_loads: 2,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
            streams,
        );
        core.set_ccws(true);
        assert!(core.ccws_enabled());
        // Closed loop with a short memory latency.
        let mut returns: std::collections::VecDeque<(u64, MemRequest)> = Default::default();
        for now in 0..30_000u64 {
            while matches!(returns.front(), Some((t, _)) if *t <= now) {
                let (_, req) = returns.pop_front().unwrap();
                core.receive(req);
            }
            core.step(now);
            while let Some(req) = core.pop_request() {
                if req.needs_response() {
                    returns.push_back((now + 40, req));
                }
            }
        }
        assert!(
            core.tlp() < cfg.warps_per_scheduler(),
            "CCWS never throttled: limit {}",
            core.tlp()
        );
    }

    #[test]
    fn ccws_leaves_cache_friendly_cores_alone() {
        // All warps share one tiny hot set: no lost locality, full TLP.
        let cfg = small_cfg();
        let streams: Vec<Box<dyn InstStream>> = (0..cfg.warps_per_core)
            .map(|_| Box::new(LoopOverSet::new(0, 4)) as Box<dyn InstStream>)
            .collect();
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams {
                max_outstanding_loads: 2,
                max_txn_per_inst: EGRESS_CAPACITY,
            },
            streams,
        );
        core.set_ccws(true);
        let mut returns: std::collections::VecDeque<(u64, MemRequest)> = Default::default();
        for now in 0..20_000u64 {
            while matches!(returns.front(), Some((t, _)) if *t <= now) {
                let (_, req) = returns.pop_front().unwrap();
                core.receive(req);
            }
            core.step(now);
            while let Some(req) = core.pop_request() {
                if req.needs_response() {
                    returns.push_back((now + 40, req));
                }
            }
        }
        assert_eq!(
            core.tlp(),
            cfg.warps_per_scheduler(),
            "no reason to throttle"
        );
    }

    #[test]
    fn disabling_ccws_restores_the_swl_limit() {
        let cfg = small_cfg();
        let mut core = SimtCore::new(
            CoreId(0),
            AppId::new(0),
            &cfg,
            CoreParams::default(),
            idle_streams(&cfg),
        );
        core.set_tlp(TlpLevel::new(6).unwrap());
        core.set_ccws(true);
        core.set_ccws(false);
        assert_eq!(core.tlp(), 6);
    }

    #[test]
    fn sleep_fast_path_matches_reference_stats() {
        // A mix of long ALU latencies and blocking loads produces plenty of
        // quiescent stretches; the sleeping engine must record the exact
        // same statistics as the cycle-by-cycle reference.
        let make = || {
            core_with_one_stream(
                Box::new(Scripted::new(vec![
                    Inst::Alu { cycles: 9 },
                    Inst::load1(0),
                    Inst::Alu { cycles: 5 },
                    Inst::load1(1 << 20),
                    Inst::alu1(),
                ])),
                CoreParams {
                    max_outstanding_loads: 1,
                    max_txn_per_inst: EGRESS_CAPACITY,
                },
            )
        };
        let run = |core: &mut SimtCore, reference: bool| {
            let mut returns: std::collections::VecDeque<(u64, MemRequest)> = Default::default();
            for now in 0..300u64 {
                while matches!(returns.front(), Some((t, _)) if *t <= now) {
                    let (_, req) = returns.pop_front().unwrap();
                    core.receive(req);
                }
                if reference {
                    core.step_reference(now);
                } else {
                    core.step(now);
                }
                while let Some(req) = core.pop_request() {
                    if req.needs_response() {
                        returns.push_back((now + 37, req));
                    }
                }
            }
        };
        let mut fast = make();
        let mut slow = make();
        fast.set_metrics_enabled(true);
        slow.set_metrics_enabled(true);
        run(&mut fast, false);
        run(&mut slow, true);
        assert_eq!(fast.stats(), slow.stats());
        // The metrics-layer stall breakdown obeys the same fast == reference
        // invariant, and every warp-cycle is accounted for exactly once.
        assert_eq!(fast.warp_stalls(), slow.warp_stalls());
        let ws = fast.warp_stalls();
        assert!(ws.total() > 0);
        assert_eq!(ws.barrier, 0, "no barrier instruction in the ISA");
        // Per cycle the buckets cover every warp slot except the issuing
        // ones, so buckets + issues is (warp slots) x cycles.
        assert_eq!(
            (ws.total() + fast.stats().insts) % fast.stats().cycles,
            0,
            "stall buckets + issues must cover a whole number of slots per cycle"
        );
    }

    #[test]
    fn warp_stalls_zero_when_metrics_disabled() {
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::alu1(), Inst::alu1()])),
            CoreParams::default(),
        );
        for now in 0..50 {
            core.step(now);
        }
        assert_eq!(core.warp_stalls(), WarpStalls::default());
    }

    #[test]
    fn credit_idle_cycles_matches_repeated_fast_steps() {
        // An all-finished core goes idle-asleep; batching k cycles must
        // equal k single fast steps.
        let make = || {
            core_with_one_stream(
                Box::new(Scripted::new(vec![Inst::alu1()])),
                CoreParams::default(),
            )
        };
        let mut batched = make();
        let mut stepped = make();
        batched.set_metrics_enabled(true);
        stepped.set_metrics_enabled(true);
        for now in 0..3u64 {
            batched.step(now);
            stepped.step(now);
        }
        assert!(batched.next_event(3) > 3, "core should sleep");
        batched.credit_idle_cycles(10);
        for now in 3..13u64 {
            stepped.step(now);
        }
        assert_eq!(batched.stats(), stepped.stats());
        assert_eq!(batched.warp_stalls(), stepped.warp_stalls());
    }

    /// A core of one warp per scheduler: warp 0 runs `warp0`, warp 1
    /// `warp1`, each with outstanding-load tolerance `tol`.
    fn two_warp_core(warp0: Vec<Inst>, warp1: Vec<Inst>, tol: usize) -> SimtCore {
        let mut cfg = small_cfg();
        cfg.warps_per_core = 2;
        let streams = [warp0, warp1]
            .into_iter()
            .map(|insts| Box::new(Scripted::new(insts)) as Box<dyn InstStream>)
            .collect();
        let params = CoreParams {
            max_outstanding_loads: tol,
            max_txn_per_inst: EGRESS_CAPACITY,
        };
        SimtCore::new(CoreId(0), AppId::new(0), &cfg, params, streams)
    }

    #[test]
    fn an_issuing_core_sleeps_through_its_only_warps_alu_latency() {
        // Warp 1 retires at cycle 0 while warp 0 issues an op of latency
        // L: nothing can happen before cycle L, and the sleep is exact.
        for l in 2..=MAX_ALU_CYCLES {
            let insts = vec![Inst::Alu { cycles: l }, Inst::alu1()];
            let mut fast = two_warp_core(insts.clone(), vec![], 1);
            let mut slow = two_warp_core(insts, vec![], 1);
            fast.set_metrics_enabled(true);
            slow.set_metrics_enabled(true);
            fast.step(0);
            assert_eq!(fast.next_event(1), l as u64, "latency {l}");
            for now in 0..l as u64 + 3 {
                if now > 0 {
                    fast.step(now);
                }
                slow.step_reference(now);
            }
            assert_eq!(fast.stats().insts, 2);
            assert_eq!(fast.stats(), slow.stats(), "latency {l}");
            assert_eq!(fast.warp_stalls(), slow.warp_stalls(), "latency {l}");
        }
    }

    #[test]
    fn an_issuing_core_stays_awake_for_a_second_ready_warp() {
        let long = vec![Inst::Alu { cycles: 9 }, Inst::alu1()];
        let mut core = two_warp_core(long, vec![Inst::alu1(); 2], 1);
        core.step(0);
        assert_eq!(core.stats().insts, 2);
        assert_eq!(core.next_event(1), 1, "warp 1 is ready at cycle 1");
    }

    #[test]
    fn an_issuing_core_stays_awake_for_an_l1_hit_due_next_cycle() {
        // The second load of line 0 hits the L1 and blocks warp 0 (tolerance
        // one) until the hit returns, one cycle later.
        let mut core = two_warp_core(vec![Inst::load1(0); 2], vec![], 1);
        core.step(0);
        let miss = core.pop_request().expect("the cold load misses");
        core.receive(miss);
        core.step(1);
        assert_eq!(core.stats().insts, 2);
        assert_eq!(core.l1_counters(AppId::new(0)).misses, 1, "a hit");
        assert_eq!(core.next_event(2), 2, "the hit returns at cycle 2");
    }

    #[test]
    fn an_issuing_core_stays_awake_beside_a_struct_blocked_warp() {
        // Warp 1's third 8-line store finds the egress queue full from cycle
        // 2 on, and is still ready when warp 0 issues its long op at 3.
        let stores = (0..3).map(|i| wide(false, 8 * i, 8)).collect();
        let alus = vec![
            Inst::alu1(),
            Inst::alu1(),
            Inst::alu1(),
            Inst::Alu { cycles: 9 },
        ];
        let mut core = two_warp_core(alus, stores, 1);
        for now in 0..4 {
            core.step(now);
        }
        assert_eq!(core.stats().insts, 6);
        assert_eq!(core.next_event(4), 4, "warp 1 retries every cycle");
    }

    #[test]
    fn is_idle_after_finite_work_drains() {
        let mut core = core_with_one_stream(
            Box::new(Scripted::new(vec![Inst::load1(0)])),
            CoreParams::default(),
        );
        run_closed_loop(&mut core, 100, 10);
        assert!(core.is_idle());
    }
}
