//! A memory partition: one L2 slice plus one FR-FCFS controller and its
//! GDDR5 channel.
//!
//! This is the unit the paper's Fig. 8 hardware reads its per-application
//! counters from: L2 accesses/misses and attained DRAM bandwidth are tracked
//! here per [`AppId`]. Requests arrive from the interconnect into a bounded
//! ingress queue; L2 hits return after the L2 hit latency; misses allocate
//! an L2 MSHR and go to DRAM; fills release all merged waiters.
//!
//! Like the SIMT core, a partition is self-contained: its whole interface
//! to the rest of the machine is `push` (ingress) and `step_into` (egress
//! into a caller-owned buffer).

use crate::cache::{Cache, Lookup};
use crate::dram::DramChannel;
use crate::mc::{McCounters, MemoryController};
use crate::req::{AccessKind, MemRequest, ReqId};
use gpu_types::{AppId, GpuConfig, PartitionId};
use std::collections::VecDeque;

/// Per-application snapshot of a partition's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounters {
    /// L2 load accesses.
    pub l2_accesses: u64,
    /// L2 load misses.
    pub l2_misses: u64,
    /// DRAM-side counters (bytes, row hits/misses).
    pub mc: McCounters,
}

/// Loads that missed L2, parked until their line fills. The L2 MSHR
/// records a load under its index here rather than under its own id (ids
/// of different cores share no sequence), so releasing a waiter is an
/// array read.
#[derive(Debug, Default)]
struct Parked {
    loads: Vec<MemRequest>,
    free: Vec<usize>,
}

impl Parked {
    /// The index the next [`Self::park`] will use.
    fn next_index(&self) -> usize {
        self.free.last().copied().unwrap_or(self.loads.len())
    }

    fn park(&mut self, req: MemRequest) {
        match self.free.pop() {
            Some(i) => self.loads[i] = req,
            None => self.loads.push(req),
        }
    }

    fn release(&mut self, waiter: ReqId) -> MemRequest {
        self.free.push(waiter.0 as usize);
        self.loads[waiter.0 as usize]
    }
}

/// One memory partition (L2 slice + memory controller + DRAM channel).
#[derive(Debug)]
pub struct MemoryPartition {
    /// Which partition this is (diagnostics only).
    pub id: PartitionId,
    l2: Cache,
    mc: MemoryController,
    dram: DramChannel,
    ingress: VecDeque<MemRequest>,
    ingress_capacity: usize,
    /// The ingress head's L2 lookup stalled on exhausted MSHRs (entries or
    /// merge slots). Only a fill frees either or makes the line resident,
    /// so until one lands the port's retry is a no-op: set on the stall,
    /// cleared by every L2 fill.
    port_blocked: bool,
    hit_latency: u64,
    /// L2 hits waiting out the hit latency, `(due, request)`. One latency
    /// and an advancing `now`: pushes arrive in due order, a FIFO.
    hit_returns: VecDeque<(u64, MemRequest)>,
    missed: Parked,
    /// Reused buffer for the controller's completed loads (hot path scratch).
    mc_done: Vec<MemRequest>,
    /// Reused buffer for the waiters released by an L2 fill (hot path
    /// scratch).
    waiter_scratch: Vec<ReqId>,
}

impl MemoryPartition {
    /// Builds a partition from the machine configuration, with L2 counter
    /// slots for `n_apps` co-scheduled applications.
    pub fn new(id: PartitionId, cfg: &GpuConfig, n_apps: usize) -> Self {
        MemoryPartition {
            id,
            l2: Cache::new(&cfg.l2, n_apps),
            mc: MemoryController::new(64, cfg.dram.n_banks),
            dram: DramChannel::new(cfg.dram.clone(), cfg.n_partitions),
            ingress: VecDeque::new(),
            ingress_capacity: 32,
            port_blocked: false,
            hit_latency: cfg.l2.hit_latency as u64,
            hit_returns: VecDeque::new(),
            missed: Parked::default(),
            mc_done: Vec::new(),
            waiter_scratch: Vec::new(),
        }
    }

    /// True when the interconnect may deliver another request.
    pub fn can_accept(&self) -> bool {
        self.ingress.len() < self.ingress_capacity
    }

    /// Delivers a request from the interconnect.
    ///
    /// # Errors
    ///
    /// Returns the request back when the ingress queue is full; the caller
    /// (the crossbar ejection logic) must retry later.
    pub fn push(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        if !self.can_accept() {
            return Err(req);
        }
        self.ingress.push_back(req);
        Ok(())
    }

    /// Hot-path form of [`MemoryPartition::step`]: appends load responses to
    /// `responses` and reuses partition-owned scratch buffers, so a
    /// steady-state cycle performs no heap allocation. Identical behaviour
    /// and response order to the allocating form.
    pub fn step_into(&mut self, now: u64, responses: &mut VecDeque<MemRequest>) {
        // 1. DRAM completions: bypassing loads return directly (no-allocate);
        //    everything else fills the L2 and releases merged waiters.
        let mut mc_done = std::mem::take(&mut self.mc_done);
        self.mc.step_into(now, &mut self.dram, &mut mc_done);
        for &fill in &mc_done {
            if fill.bypass_caches {
                responses.push_back(fill);
                continue;
            }
            let mut waiters = std::mem::take(&mut self.waiter_scratch);
            self.l2.fill_into(fill.addr, &mut waiters);
            self.port_blocked = false;
            responses.extend(waiters.iter().map(|&w| self.missed.release(w)));
            waiters.clear();
            self.waiter_scratch = waiters;
        }
        mc_done.clear();
        self.mc_done = mc_done;

        // 2. L2 hits whose latency elapsed.
        while let Some((_, hit)) = self.hit_returns.pop_front_if(|(due, _)| *due <= now) {
            responses.push_back(hit);
        }

        // 3. Service one ingress request per cycle (the L2 port).
        self.service_ingress(now);
    }

    /// Advances one cycle; returns load responses ready to enter the
    /// response interconnect. Allocating reference form (per-cycle `Vec`s),
    /// kept for tests and the reference engine.
    pub fn step(&mut self, now: u64) -> Vec<MemRequest> {
        let mut responses = Vec::new();

        for fill in self.mc.step(now, &mut self.dram) {
            if fill.bypass_caches {
                responses.push(fill);
                continue;
            }
            let waiters = self.l2.fill(fill.addr);
            self.port_blocked = false;
            responses.extend(waiters.into_iter().map(|w| self.missed.release(w)));
        }

        while let Some((_, hit)) = self.hit_returns.pop_front_if(|(due, _)| *due <= now) {
            responses.push(hit);
        }

        self.service_ingress(now);

        responses
    }

    /// Services one ingress request at the L2 port (shared by both step
    /// forms — it never produces responses directly).
    fn service_ingress(&mut self, now: u64) {
        if let Some(&req) = self.ingress.front() {
            match req.kind {
                AccessKind::Store => {
                    // Write-through no-allocate: forward to DRAM, or stall
                    // this cycle if the controller is full.
                    if self.mc.can_accept() {
                        self.ingress.pop_front();
                        self.mc
                            .push_with(req, &self.dram, now)
                            .expect("can_accept checked");
                    }
                }
                AccessKind::Load if req.bypass_caches => {
                    // No-allocate: a resident line may still serve the
                    // request, but misses go straight to DRAM and will not
                    // pollute the slice.
                    if self.mc.can_accept() {
                        self.ingress.pop_front();
                        if self.l2.access_load_no_alloc(req.app, req.addr) {
                            self.hit_returns.push_back((now + self.hit_latency, req));
                        } else {
                            self.mc
                                .push_with(req, &self.dram, now)
                                .expect("can_accept checked");
                        }
                    }
                }
                AccessKind::Load => {
                    // Only start the lookup if a miss could be forwarded;
                    // otherwise the L2 port stalls this cycle.
                    if self.mc.can_accept() {
                        self.ingress.pop_front();
                        let waiter = ReqId(self.missed.next_index() as u64);
                        match self.l2.access_load(req.app, req.addr, waiter) {
                            Lookup::Hit => {
                                self.hit_returns.push_back((now + self.hit_latency, req));
                            }
                            Lookup::MissToLower => {
                                self.missed.park(req);
                                self.mc
                                    .push_with(req, &self.dram, now)
                                    .expect("can_accept checked");
                            }
                            Lookup::MissMerged => self.missed.park(req),
                            Lookup::Stall => {
                                // MSHRs exhausted: put it back and retry
                                // after a fill.
                                self.ingress.push_front(req);
                                self.port_blocked = true;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The earliest cycle `>= from` at which stepping this partition can
    /// have any observable effect — its "next event at" contract for the
    /// event engine. Until then, [`MemoryPartition::step_into`] is provably
    /// a strict no-op: no DRAM completion is due, no L2 hit return is due,
    /// the L2 port cannot service ingress (empty, the controller is full,
    /// or the head's lookup stalled on L2 MSHRs and no fill has landed
    /// since), and the controller cannot issue (empty, or every targeted
    /// bank is busy — bank state only changes when *this* partition
    /// issues, so the horizon stays exact between steps). `u64::MAX`
    /// signals a fully drained partition that only an ingress push can
    /// reawaken.
    pub fn next_event(&self, from: u64) -> u64 {
        if !self.ingress.is_empty() && self.mc.can_accept() && !self.port_blocked {
            return from; // the L2 port can service a request now
        }
        let mut next = u64::MAX;
        if let Some(t) = self.mc.next_completion() {
            next = next.min(t.max(from));
        }
        if let Some(&(due, _)) = self.hit_returns.front() {
            next = next.min(due.max(from));
        }
        if self.mc.queued() > 0 {
            next = next.min(self.mc.next_issue_at(&self.dram, from));
        }
        next
    }

    /// Enables or disables metrics recording in the memory controller
    /// (request-latency histograms); off by default.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.mc.set_metrics_enabled(on);
    }

    /// Returns and resets the DRAM queue-to-data latency histogram for
    /// `app` (empty unless metrics recording is enabled).
    pub fn take_dram_latency(&mut self, app: AppId) -> gpu_types::Histogram {
        self.mc.take_latency(app)
    }

    /// L2 MSHR occupancy as a `(used, capacity)` pair, sampled by the
    /// metrics layer at window rollover.
    pub fn l2_mshr_occupancy(&self) -> (usize, usize) {
        self.l2.mshr_occupancy()
    }

    /// Per-application counters (L2 + DRAM side).
    pub fn counters(&self, app: AppId) -> PartitionCounters {
        let l2 = self.l2.counters(app);
        PartitionCounters {
            l2_accesses: l2.accesses,
            l2_misses: l2.misses,
            mc: self.mc.counters(app),
        }
    }

    /// Requests currently queued in the partition (ingress + memory
    /// controller), the congestion signal exported as
    /// `PartitionWindow.queue_depth` by the trace layer.
    pub fn queue_depth(&self) -> usize {
        self.ingress.len() + self.mc.queued()
    }

    /// True when the partition holds no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.ingress.is_empty()
            && self.hit_returns.is_empty()
            && self.missed.free.len() == self.missed.loads.len()
            && self.mc.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::{Address, CoreId};

    fn partition() -> MemoryPartition {
        MemoryPartition::new(PartitionId(0), &GpuConfig::small(), 2)
    }

    fn load(id: u64, addr: u64) -> MemRequest {
        MemRequest::new(
            ReqId(id),
            AppId::new(0),
            CoreId(0),
            0,
            Address::new(addr),
            AccessKind::Load,
        )
    }

    fn drain(p: &mut MemoryPartition) -> Vec<(u64, MemRequest)> {
        let mut out = Vec::new();
        let mut now = 0;
        while !p.is_idle() {
            for r in p.step(now) {
                out.push((now, r));
            }
            now += 1;
            assert!(now < 100_000, "partition failed to drain");
        }
        out
    }

    #[test]
    fn cold_load_misses_then_warm_load_hits() {
        let mut p = partition();
        p.push(load(1, 0)).unwrap();
        let first = drain(&mut p);
        assert_eq!(first.len(), 1);
        let t_miss = first[0].0;

        p.push(load(2, 0)).unwrap();
        let second = drain(&mut p);
        assert_eq!(second.len(), 1);
        let t_hit = second[0].0;
        assert!(
            t_hit < t_miss,
            "L2 hit ({t_hit}) must be faster than miss ({t_miss})"
        );

        let k = p.counters(AppId::new(0));
        assert_eq!((k.l2_accesses, k.l2_misses), (2, 1));
        assert_eq!(k.mc.dram_bytes, gpu_types::LINE_SIZE);
    }

    #[test]
    fn merged_misses_release_together() {
        let mut p = partition();
        p.push(load(1, 0)).unwrap();
        p.push(load(2, 0)).unwrap();
        let out = drain(&mut p);
        assert_eq!(out.len(), 2);
        // One DRAM transfer served both; only one true miss, one merge.
        assert_eq!(
            p.counters(AppId::new(0)).mc.dram_bytes,
            gpu_types::LINE_SIZE
        );
        assert_eq!(p.counters(AppId::new(0)).l2_misses, 1);
    }

    #[test]
    fn stores_consume_bandwidth_without_response() {
        let mut p = partition();
        let mut st = load(1, 0);
        st.kind = AccessKind::Store;
        p.push(st).unwrap();
        let out = drain(&mut p);
        assert!(out.is_empty());
        let k = p.counters(AppId::new(0));
        assert_eq!(
            k.l2_accesses, 0,
            "stores are not counted in L2 miss-rate accounting"
        );
        assert_eq!(k.mc.dram_bytes, gpu_types::LINE_SIZE);
    }

    #[test]
    fn ingress_backpressure() {
        let mut p = partition();
        for i in 0..32 {
            p.push(load(i, i * 128)).unwrap();
        }
        assert!(!p.can_accept());
        assert!(p.push(load(99, 0)).is_err());
    }

    #[test]
    fn per_app_l2_counters_are_separate() {
        let mut p = partition();
        p.push(load(1, 0)).unwrap();
        let mut r = load(2, 1 << 20);
        r.app = AppId::new(1);
        p.push(r).unwrap();
        drain(&mut p);
        assert_eq!(p.counters(AppId::new(0)).l2_accesses, 1);
        assert_eq!(p.counters(AppId::new(1)).l2_accesses, 1);
    }

    #[test]
    fn bypassing_load_does_not_allocate_in_l2() {
        let mut p = partition();
        p.push(load(1, 0).bypassing()).unwrap();
        let out = drain(&mut p);
        assert_eq!(out.len(), 1, "bypassed load still returns data");
        // A second bypassed load to the same line misses again: nothing was
        // allocated.
        p.push(load(2, 0).bypassing()).unwrap();
        drain(&mut p);
        let k = p.counters(AppId::new(0));
        assert_eq!((k.l2_accesses, k.l2_misses), (2, 2));
        assert_eq!(k.mc.dram_bytes, 2 * gpu_types::LINE_SIZE);
    }

    #[test]
    fn bypassing_load_may_still_hit_resident_lines() {
        let mut p = partition();
        // Warm the line with a normal load...
        p.push(load(1, 0)).unwrap();
        drain(&mut p);
        // ...then a bypassed load to it hits without DRAM traffic.
        p.push(load(2, 0).bypassing()).unwrap();
        drain(&mut p);
        let k = p.counters(AppId::new(0));
        assert_eq!(k.l2_misses, 1, "only the warming load missed");
        assert_eq!(k.mc.dram_bytes, gpu_types::LINE_SIZE);
    }

    #[test]
    fn bypassing_and_cached_loads_coexist_on_one_line() {
        let mut p = partition();
        p.push(load(1, 0)).unwrap();
        p.push(load(2, 0).bypassing()).unwrap();
        let out = drain(&mut p);
        assert_eq!(out.len(), 2, "both loads must complete");
    }

    #[test]
    fn one_request_serviced_per_cycle() {
        let mut p = partition();
        // Warm two lines.
        p.push(load(1, 0)).unwrap();
        p.push(load(2, 128)).unwrap();
        drain(&mut p);
        // Both hit now, but the single L2 port takes them one per cycle.
        p.push(load(3, 0)).unwrap();
        p.push(load(4, 128)).unwrap();
        let out = drain(&mut p);
        assert_eq!(out.len(), 2);
        assert_ne!(out[0].0, out[1].0, "hits must be staggered by the L2 port");
    }
}
