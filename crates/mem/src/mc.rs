//! FR-FCFS memory controller.
//!
//! First-Ready, First-Come-First-Served (Table I): each cycle the controller
//! issues at most one queued request to its DRAM channel, preferring the
//! oldest *row-hit* request whose bank can take a command, and falling back
//! to the oldest request with a free bank. Completed loads are returned to
//! the caller at their data-completion cycle; stores consume bandwidth but
//! produce no response.
//!
//! The queue is organised by bank, not by arrival: one FIFO per bank in
//! arrival order (index-linked through a single slab) and a set of the
//! banks that hold anything. A pick looks at each such bank once — busy
//! banks cost one probe, whatever is queued behind them — and arrival
//! stamps decide between banks, so the choice is the one a front-to-back
//! scan of a single arrival-ordered queue makes (debug builds check that).
//! Before the earliest cycle a pending bank frees, kept as the controller's
//! issue horizon, no pick is tried at all.
//!
//! The controller also owns the per-application accounting the paper's
//! designated-partition sampling reads: useful bytes transferred (attained
//! bandwidth) and row-buffer hit/miss counts.

use crate::dram::DramChannel;
use crate::req::{AccessKind, MemRequest};
use gpu_types::bits::{BitSet, BitWalk};
use gpu_types::{AppId, Histogram, LINE_SIZE};
use std::collections::VecDeque;

/// Per-application DRAM-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McCounters {
    /// Useful data bytes transferred over the DRAM interface.
    pub dram_bytes: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required activating a row.
    pub row_misses: u64,
}

/// "No slot": the end of a bank's FIFO or of the free list.
const NIL: u32 = u32::MAX;

/// A queued request with what a pick reads of it: 56 bytes.
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: MemRequest,
    /// The request's bank (`n_banks` fits 32 bits: [`MemoryController::new`]).
    bank: u32,
    row: u64,
    /// Arrival cycle, recorded so the metrics layer can attribute the full
    /// queue-to-data latency (`done_at - at`) when the request is issued.
    at: u64,
    /// Arrival order across the whole controller (several requests may
    /// arrive in one cycle).
    stamp: u64,
    /// The next-younger request on the same bank; the next free slot while
    /// this one is vacant.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Queued>() == 56);

/// One bank's queued requests, oldest first, as slab indices.
#[derive(Debug, Clone, Copy)]
struct BankFifo {
    head: u32,
    tail: u32,
}

/// A queued request as a pick names it: its slab slot and the slot linking
/// to it ([`NIL`] for a bank's head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    slot: u32,
    prev: u32,
}

/// An FR-FCFS controller fronting one [`DramChannel`].
#[derive(Debug)]
pub struct MemoryController {
    /// Queued requests; grows to at most `capacity` slots, vacated ones are
    /// chained from `free`.
    slab: Vec<Queued>,
    free: u32,
    banks: Vec<BankFifo>,
    /// Banks whose FIFO is non-empty.
    pending: BitSet,
    queued: usize,
    arrivals: u64,
    capacity: usize,
    /// The earliest `busy_until` over the pending banks (`u64::MAX` while
    /// none is): nothing issues before it. Bank state changes only in this
    /// controller's issue, so `push_with` lowers it when a bank becomes
    /// pending and each issue rescans it.
    horizon: u64,
    /// Issued loads as `(done_at, request)`, in issue order — which is
    /// completion order: the channel books its one data bus in order, so
    /// `done_at` strictly increases along the queue.
    in_flight: VecDeque<(u64, MemRequest)>,
    counters: Vec<McCounters>,
    /// When true, per-app request-latency histograms are recorded at issue
    /// time; off by default so the hot path stays within noise.
    metrics: bool,
    latency: Vec<Histogram>,
}

impl MemoryController {
    /// Creates a controller with a request queue of `capacity` entries in
    /// front of a channel of `n_banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, n_banks: usize) -> Self {
        assert!(capacity > 0, "controller queue capacity must be non-zero");
        assert!(
            u32::try_from(n_banks).is_ok(),
            "bank count must fit 32 bits"
        );
        MemoryController {
            slab: Vec::new(),
            free: NIL,
            banks: vec![
                BankFifo {
                    head: NIL,
                    tail: NIL
                };
                n_banks
            ],
            pending: BitSet::new(n_banks),
            queued: 0,
            arrivals: 0,
            capacity,
            horizon: u64::MAX,
            in_flight: VecDeque::new(),
            counters: Vec::new(),
            metrics: false,
            latency: Vec::new(),
        }
    }

    /// Enables or disables request-latency recording.  Gated exactly like
    /// `TraceSink::enabled()`: when off (the default), the only cost on
    /// the hot path is one untaken branch per issue.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.metrics = on;
    }

    /// True when another request can be enqueued.
    pub fn can_accept(&self) -> bool {
        self.queued < self.capacity
    }

    /// Enqueues a request arriving at cycle `now`. The bank/row decode
    /// happens once here so the per-cycle FR-FCFS pick is division-free.
    ///
    /// # Errors
    ///
    /// Returns the request back when the queue is full.
    pub fn push_with(
        &mut self,
        req: MemRequest,
        dram: &DramChannel,
        now: u64,
    ) -> Result<(), MemRequest> {
        if !self.can_accept() {
            return Err(req);
        }
        let bank = dram.bank_of(req.addr);
        let queued = Queued {
            req,
            bank: bank as u32,
            row: dram.row_of(req.addr),
            at: now,
            stamp: self.arrivals,
            next: NIL,
        };
        self.arrivals += 1;
        let slot = if self.free == NIL {
            self.slab.push(queued);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.slab[slot as usize].next;
            self.slab[slot as usize] = queued;
            slot
        };
        let fifo = &mut self.banks[bank];
        if fifo.head == NIL {
            fifo.head = slot;
            self.pending.set(bank);
            self.horizon = self.horizon.min(dram.bank_busy_until(bank));
        } else {
            self.slab[fifo.tail as usize].next = slot;
        }
        fifo.tail = slot;
        self.queued += 1;
        Ok(())
    }

    /// Unlinks `pick` from its bank's FIFO and returns it.
    fn take(&mut self, pick: Pick) -> Queued {
        let q = self.slab[pick.slot as usize];
        let fifo = &mut self.banks[q.bank as usize];
        if pick.prev == NIL {
            fifo.head = q.next;
        } else {
            self.slab[pick.prev as usize].next = q.next;
        }
        if fifo.tail == pick.slot {
            fifo.tail = pick.prev;
        }
        if fifo.head == NIL {
            self.pending.clear(q.bank as usize);
        }
        self.slab[pick.slot as usize].next = self.free;
        self.free = pick.slot;
        self.queued -= 1;
        q
    }

    /// The FR-FCFS choice at `now`: the oldest row-hit on a free bank, else
    /// the oldest request on a free bank. Each pending bank is probed once;
    /// a free one offers its head and, with a row open, the first request
    /// of its FIFO for that row.
    fn pick(&self, now: u64, dram: &DramChannel) -> Option<Pick> {
        let mut oldest: Option<(u64, Pick)> = None;
        let mut oldest_hit: Option<(u64, Pick)> = None;
        let mut banks = BitWalk::over(0..self.banks.len());
        while let Some(bank) = self.pending.next(&mut banks) {
            if !dram.bank_free_idx(bank, now) {
                continue;
            }
            let head = self.banks[bank].head;
            let stamp = self.slab[head as usize].stamp;
            if oldest.is_none_or(|(s, _)| stamp < s) {
                let pick = Pick {
                    slot: head,
                    prev: NIL,
                };
                oldest = Some((stamp, pick));
            }
            let Some(open) = dram.open_row(bank) else {
                continue;
            };
            let (mut prev, mut slot) = (NIL, head);
            while slot != NIL {
                let q = &self.slab[slot as usize];
                // Stamps ascend along a FIFO: past the best hit so far,
                // this bank has nothing older to offer.
                if oldest_hit.is_some_and(|(s, _)| q.stamp > s) {
                    break;
                }
                if q.row == open {
                    oldest_hit = Some((q.stamp, Pick { slot, prev }));
                    break;
                }
                (prev, slot) = (slot, q.next);
            }
        }
        oldest_hit.or(oldest).map(|(_, pick)| pick)
    }

    /// [`Self::pick`] as a scan of every queued request in arrival order —
    /// the definition of FR-FCFS the per-bank form is held to.
    fn pick_by_scan(&self, now: u64, dram: &DramChannel) -> Option<u32> {
        let mut live: Vec<u32> = Vec::new();
        for fifo in &self.banks {
            let mut slot = fifo.head;
            while slot != NIL {
                live.push(slot);
                slot = self.slab[slot as usize].next;
            }
        }
        live.sort_by_key(|&slot| self.slab[slot as usize].stamp);
        let queued = live.iter().map(|&slot| (slot, &self.slab[slot as usize]));
        let mut on_free_banks = queued.filter(|(_, q)| dram.bank_free_idx(q.bank as usize, now));
        let first_free = on_free_banks.clone().next();
        let first_hit = on_free_banks.find(|(_, q)| dram.open_row(q.bank as usize) == Some(q.row));
        first_hit.or(first_free).map(|(slot, _)| slot)
    }

    fn counters_mut(&mut self, app: AppId) -> &mut McCounters {
        if self.counters.len() <= app.index() {
            self.counters.resize(app.index() + 1, McCounters::default());
        }
        &mut self.counters[app.index()]
    }

    /// The earliest `busy_until` over the pending banks, by walking them —
    /// what `horizon` keeps.
    fn scan_horizon(&self, dram: &DramChannel) -> u64 {
        let mut banks = BitWalk::over(0..self.banks.len());
        std::iter::from_fn(|| self.pending.next(&mut banks))
            .map(|bank| dram.bank_busy_until(bank))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// FR-FCFS issue: forwards at most one queued request to `dram`.
    fn issue_one(&mut self, now: u64, dram: &mut DramChannel) {
        debug_assert_eq!(
            self.horizon,
            self.scan_horizon(dram),
            "kept issue horizon diverged from the pending banks"
        );
        let pick = if now < self.horizon {
            None
        } else {
            self.pick(now, dram)
        };
        debug_assert_eq!(
            pick.map(|p| p.slot),
            self.pick_by_scan(now, dram),
            "per-bank pick diverged from the arrival-order scan"
        );
        let Some(pick) = pick else {
            return;
        };
        let q = self.take(pick);
        let req = q.req;
        let svc = dram.service_at(q.bank as usize, q.row, now);
        self.horizon = self.scan_horizon(dram);
        if self.metrics {
            let app = req.app.index();
            if self.latency.len() <= app {
                self.latency.resize(app + 1, Histogram::new());
            }
            self.latency[app].record(svc.done_at.saturating_sub(q.at));
        }
        let c = self.counters_mut(req.app);
        c.dram_bytes += LINE_SIZE;
        if svc.row_hit {
            c.row_hits += 1;
        } else {
            c.row_misses += 1;
        }
        if req.kind == AccessKind::Load {
            debug_assert!(
                self.in_flight.back().is_none_or(|&(t, _)| t < svc.done_at),
                "DRAM completions left issue order"
            );
            self.in_flight.push_back((svc.done_at, req));
        }
    }

    /// Advances one cycle: possibly issues one request to `dram` (FR-FCFS)
    /// and appends the loads whose data completed at or before `now` to
    /// `done`. This is the allocation-free hot-path form; the caller owns
    /// and reuses the buffer.
    pub fn step_into(&mut self, now: u64, dram: &mut DramChannel, done: &mut Vec<MemRequest>) {
        self.issue_one(now, dram);
        while let Some((_, req)) = self.in_flight.pop_front_if(|(t, _)| *t <= now) {
            done.push(req);
        }
    }

    /// Advances one cycle and returns the completed loads. Allocating
    /// wrapper over [`MemoryController::step_into`], kept for tests and the
    /// reference engine.
    pub fn step(&mut self, now: u64, dram: &mut DramChannel) -> Vec<MemRequest> {
        let mut done = Vec::new();
        self.step_into(now, dram, &mut done);
        done
    }

    /// Earliest cycle at which an issued load's data completes, if any —
    /// the partition's quiescence check reads this to find the next event.
    pub fn next_completion(&self) -> Option<u64> {
        self.in_flight.front().map(|&(done_at, _)| done_at)
    }

    /// The earliest cycle `>= from` at which a queued request could issue:
    /// the minimum `busy_until` over the banks the queued requests target,
    /// clamped to `from` (`u64::MAX` when the queue is empty). Banks only
    /// change state when this controller issues to them, so the horizon is
    /// exact between steps — this is the controller's "next event at"
    /// contract for the event engine. Kept, not walked: `dram` is read
    /// only by the debug check against the pending banks.
    pub fn next_issue_at(&self, dram: &DramChannel, from: u64) -> u64 {
        debug_assert_eq!(
            self.horizon,
            self.scan_horizon(dram),
            "kept issue horizon diverged from the pending banks"
        );
        self.horizon.max(from)
    }

    /// Per-application counters (zero for apps never seen).
    pub fn counters(&self, app: AppId) -> McCounters {
        self.counters.get(app.index()).copied().unwrap_or_default()
    }

    /// Returns and resets the queue-to-data latency histogram accumulated
    /// for `app` since the last take (empty unless metrics recording is
    /// enabled via [`MemoryController::set_metrics_enabled`]).
    pub fn take_latency(&mut self, app: AppId) -> Histogram {
        self.latency
            .get_mut(app.index())
            .map(Histogram::take)
            .unwrap_or_default()
    }

    /// Requests waiting to be issued.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Loads issued to DRAM whose data has not yet returned.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// True when no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqId;
    use gpu_types::addr::INTERLEAVE_BYTES;
    use gpu_types::{Address, CoreId, DramConfig};

    fn dram() -> DramChannel {
        DramChannel::new(
            DramConfig {
                n_banks: 8,
                n_bank_groups: 4,
                row_bytes: 1024,
                t_cl: 12,
                t_rp: 12,
                t_rcd: 12,
                t_ras: 28,
                t_ccd_l: 4,
                t_ccd_s: 2,
                t_rrd: 6,
                burst_cycles: 4,
                page_policy: gpu_types::PagePolicy::Open,
            },
            1,
        )
    }

    fn load(id: u64, chunk: u64) -> MemRequest {
        MemRequest::new(
            ReqId(id),
            AppId::new(0),
            CoreId(0),
            0,
            Address::new(chunk * INTERLEAVE_BYTES),
            AccessKind::Load,
        )
    }

    fn run_until_idle(mc: &mut MemoryController, dram: &mut DramChannel) -> Vec<(u64, MemRequest)> {
        let mut out = Vec::new();
        let mut now = 0;
        while !mc.is_idle() {
            for r in mc.step(now, dram) {
                out.push((now, r));
            }
            now += 1;
            assert!(now < 100_000, "controller failed to drain");
        }
        out
    }

    #[test]
    fn single_load_round_trips() {
        let mut mc = MemoryController::new(8, 8);
        let mut ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let done = run_until_idle(&mut mc, &mut ch);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.id, ReqId(1));
        let k = mc.counters(AppId::new(0));
        assert_eq!(k.dram_bytes, LINE_SIZE);
        assert_eq!((k.row_hits, k.row_misses), (0, 1));
    }

    #[test]
    fn stores_complete_without_response() {
        let mut mc = MemoryController::new(8, 8);
        let mut ch = dram();
        let mut st = load(1, 0);
        st.kind = AccessKind::Store;
        mc.push_with(st, &ch, 0).unwrap();
        let done = run_until_idle(&mut mc, &mut ch);
        assert!(done.is_empty());
        assert_eq!(mc.counters(AppId::new(0)).dram_bytes, LINE_SIZE);
    }

    #[test]
    fn row_hits_are_prioritized_over_older_conflicts() {
        let mut mc = MemoryController::new(8, 8);
        let mut ch = dram();
        // Open bank 0 row 0 (chunks 0..4 are row 0 of bank 0; with 8 banks
        // and 4 chunks per row, chunk 32 is bank 0 row 1).
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let mut now = 0;
        let mut done = Vec::new();
        while done.is_empty() {
            done.extend(mc.step(now, &mut ch));
            now += 1;
            assert!(now < 1000, "first load never completed");
        }
        // Enqueue an older row-conflict (bank 0 row 1) and a younger row-hit
        // (bank 0 row 0) on the same, now-free bank.
        mc.push_with(load(2, 32), &ch, now).unwrap();
        mc.push_with(load(3, 1), &ch, now).unwrap();
        let mut order = Vec::new();
        while !mc.is_idle() {
            order.extend(mc.step(now, &mut ch).into_iter().map(|r| r.id));
            now += 1;
            assert!(now < 10_000, "controller failed to drain");
        }
        assert_eq!(
            order,
            vec![ReqId(3), ReqId(2)],
            "row-hit request must be served first"
        );
        let k = mc.counters(AppId::new(0));
        assert_eq!(k.row_hits, 1);
        assert_eq!(k.row_misses, 2);
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut mc = MemoryController::new(2, 8);
        let ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        mc.push_with(load(2, 1), &ch, 0).unwrap();
        assert!(!mc.can_accept());
        assert!(mc.push_with(load(3, 2), &ch, 0).is_err());
    }

    #[test]
    fn per_app_bandwidth_attribution() {
        let mut mc = MemoryController::new(8, 8);
        let mut ch = dram();
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        let mut r2 = load(2, 100);
        r2.app = AppId::new(1);
        mc.push_with(r2, &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        assert_eq!(mc.counters(AppId::new(0)).dram_bytes, LINE_SIZE);
        assert_eq!(mc.counters(AppId::new(1)).dram_bytes, LINE_SIZE);
    }

    #[test]
    fn completions_preserve_data_order_per_bank_stream() {
        let mut mc = MemoryController::new(16, 8);
        let mut ch = dram();
        for i in 0..8 {
            mc.push_with(load(i, i / 2), &ch, 0).unwrap(); // 2 lines per chunk; one row
        }
        let done = run_until_idle(&mut mc, &mut ch);
        assert_eq!(done.len(), 8);
        // Same row, same bank: FR-FCFS serves them oldest-first.
        let ids: Vec<u64> = done.iter().map(|(_, r)| r.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn latency_histogram_gated_and_taken() {
        let mut mc = MemoryController::new(8, 8);
        let mut ch = dram();
        // Disabled (default): nothing recorded.
        mc.push_with(load(1, 0), &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        assert!(mc.take_latency(AppId::new(0)).is_empty());
        // Enabled: both loads and stores are attributed, and take() resets.
        mc.set_metrics_enabled(true);
        mc.push_with(load(2, 0), &ch, 0).unwrap();
        let mut st = load(3, 1);
        st.kind = AccessKind::Store;
        mc.push_with(st, &ch, 0).unwrap();
        run_until_idle(&mut mc, &mut ch);
        let h = mc.take_latency(AppId::new(0));
        assert_eq!(h.count(), 2);
        assert!(h.min() > 0, "queue-to-data latency must be positive");
        assert!(mc.take_latency(AppId::new(0)).is_empty());
    }
}
