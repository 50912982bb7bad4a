//! The production cycle kernel: one five-phase machine cycle over a
//! *domain*, parameterized by how flits cross the crossbars.
//!
//! A [`Domain`] is a contiguous slice of SIMT cores and memory partitions
//! with their staging backlogs, plus the [`DomainState`] the engine keeps
//! for them between run spans: a timing wheel of component wake times, the
//! per-cycle due flags it fires into, lazy idle-credit watermarks and the
//! egress-pending set. [`Domain::step_cycle`] is the only production copy
//! of the machine cycle (partitions → response delivery → cores → egress →
//! ejection/ingress); [`Domain::advance`] is the only jump-or-step loop
//! around it. Both are generic over a [`Fabric`], statically dispatched:
//!
//! * [`DirectFabric`] owns both crossbars and pushes, arbitrates and
//!   delivers in-cycle. It serves a machine that is one domain on the
//!   calling thread, at any crossbar latency including zero.
//! * [`Mailbox`] is the windowed fabric of one domain among several
//!   (docs/PARALLELISM.md): the coordinator forward-simulated the window's
//!   crossbar arbitration, so deliveries arrive tagged with their window
//!   offset, pushes are admitted against exact per-port budgets and staged
//!   with their origin offset for the coordinator to replay.
//!
//! The rest of the file is the worker side of the windowed protocol
//! ([`Gate`], [`Latch`], [`worker_loop`]); the coordinator lives in
//! `Gpu::run_windowed`. Everything here is `pub(crate)`: the public surface
//! of intra-simulation parallelism is `Gpu::set_sim_threads` and the
//! `EBM_SIM_THREADS` environment variable.

use crate::timeq::{TimeQ, NEVER};
use gpu_mem::req::MemRequest;
use gpu_mem::{Crossbar, MemoryPartition};
use gpu_simt::SimtCore;
use gpu_types::GpuConfig;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// How a domain's flits cross the two crossbars during one cycle. Ports
/// are domain-local indices (core `lc` feeds request-network port `lc`,
/// partition `lp` feeds response-network port `lp`); destinations are
/// machine-global.
pub(crate) trait Fabric {
    /// Opens cycle `t`: the domain has work there, and the fabric records
    /// the cycle as stepped.
    fn begin_cycle(&mut self, t: u64);
    /// Responses partition `lp` may still push this cycle.
    fn resp_budget(&self, lp: usize) -> usize;
    /// Pushes a response from partition `lp` toward core `dest`; the
    /// caller stays within [`Fabric::resp_budget`].
    fn push_resp(&mut self, lp: usize, dest: usize, resp: MemRequest);
    /// Hands this cycle's response grants to `deliver(local core, response)`
    /// in arbitration order.
    fn deliver_resps(&mut self, deliver: impl FnMut(usize, MemRequest));
    /// Requests core `lc` may still push this cycle.
    fn req_budget(&self, lc: usize) -> usize;
    /// Pushes a request from core `lc` toward partition `dest`; the caller
    /// stays within [`Fabric::req_budget`].
    fn push_req(&mut self, lc: usize, dest: usize, req: MemRequest);
    /// Hands this cycle's request ejections to `eject(local partition,
    /// request)` in arbitration order.
    fn eject_reqs(&mut self, eject: impl FnMut(usize, MemRequest));
    /// The earliest cycle at which the fabric has something to deliver
    /// ([`NEVER`] when nothing is in flight toward this domain).
    fn next_delivery(&self) -> u64;
}

/// The cycle from which `net` can next deliver, seen from cycle `from`:
/// its earliest head-of-line ready time clamped to `from`, [`NEVER`] when
/// it is empty. Pushes never lower it (a new flit is ready no earlier than
/// every flit already buffered), so it only needs recomputing after the
/// net was stepped.
pub(crate) fn net_due(net: &Crossbar<MemRequest>, from: u64) -> u64 {
    net.earliest_head_ready().map_or(NEVER, |t| t.max(from))
}

/// One crossbar as the direct fabric drives it.
struct Link<'a> {
    net: &'a mut Crossbar<MemRequest>,
    latency: u64,
    /// [`net_due`] as of the last step: the net is stepped at cycle `t`
    /// iff `due_at <= t`. [`NEVER`] exactly while the net is empty.
    due_at: u64,
}

impl<'a> Link<'a> {
    fn new(net: &'a mut Crossbar<MemRequest>, latency: u64, now: u64) -> Self {
        let due_at = net_due(net, now);
        Link {
            net,
            latency,
            due_at,
        }
    }

    fn push(&mut self, port: usize, dest: usize, payload: MemRequest, now: u64) {
        self.net
            .push(port, dest, payload, now)
            .expect("pushed within the admission budget");
        if self.due_at == NEVER {
            // First flit into an empty network: ready after the wire
            // latency — this very cycle at latency zero. An already
            // populated network's earlier wake stands.
            self.due_at = now + self.latency;
        }
    }

    /// Steps the net if it is due; returns the number of steps taken.
    fn step(&mut self, now: u64, deliver: impl FnMut(usize, MemRequest)) -> u64 {
        if self.due_at > now {
            return 0;
        }
        self.net.step_with(now, deliver);
        self.due_at = net_due(self.net, now + 1);
        1
    }
}

/// The fabric of a one-domain machine: both crossbars, driven in-cycle.
pub(crate) struct DirectFabric<'a> {
    req: Link<'a>,
    resp: Link<'a>,
    now: u64,
    /// Cycles opened (each one advanced the machine by stepping).
    pub(crate) stepped_cycles: u64,
    /// Crossbar step calls executed (request + response networks).
    pub(crate) xbar_steps: u64,
}

impl<'a> DirectFabric<'a> {
    pub(crate) fn new(
        req_net: &'a mut Crossbar<MemRequest>,
        resp_net: &'a mut Crossbar<MemRequest>,
        latency: u64,
        now: u64,
    ) -> Self {
        DirectFabric {
            req: Link::new(req_net, latency, now),
            resp: Link::new(resp_net, latency, now),
            now,
            stepped_cycles: 0,
            xbar_steps: 0,
        }
    }
}

impl Fabric for DirectFabric<'_> {
    fn begin_cycle(&mut self, t: u64) {
        self.now = t;
        self.stepped_cycles += 1;
    }

    fn resp_budget(&self, lp: usize) -> usize {
        self.resp.net.free_slots(lp)
    }

    fn push_resp(&mut self, lp: usize, dest: usize, resp: MemRequest) {
        self.resp.push(lp, dest, resp, self.now);
    }

    fn deliver_resps(&mut self, deliver: impl FnMut(usize, MemRequest)) {
        self.xbar_steps += self.resp.step(self.now, deliver);
    }

    fn req_budget(&self, lc: usize) -> usize {
        self.req.net.free_slots(lc)
    }

    fn push_req(&mut self, lc: usize, dest: usize, req: MemRequest) {
        self.req.push(lc, dest, req, self.now);
    }

    fn eject_reqs(&mut self, eject: impl FnMut(usize, MemRequest)) {
        self.xbar_steps += self.req.step(self.now, eject);
    }

    fn next_delivery(&self) -> u64 {
        self.req.due_at.min(self.resp.due_at)
    }
}

/// What the engine keeps for one domain between run spans. Everything but
/// the geometry is derived from component state by
/// [`Domain::derive_wake_state`] and stays exact until the machine's one
/// invalidation rule fires (`Gpu::invalidate_wake_state`).
pub(crate) struct DomainState {
    /// The global core indices (request-network ports) the domain owns.
    pub(crate) cores: Range<usize>,
    /// The global partition indices (response-network ports) it owns.
    pub(crate) parts: Range<usize>,
    /// One wake time per local component: cores at `0..n`, partitions
    /// after them.
    timeq: TimeQ,
    /// Per-cycle scratch: which cores / partitions step this cycle.
    core_due: Vec<bool>,
    part_due: Vec<bool>,
    /// Per core: the cycle up to which its per-cycle counters have been
    /// charged. A sleeping, skipped core is credited in one batch when it
    /// is next touched or when the span ends.
    credited: Vec<u64>,
    /// Per core: whether its egress queue is non-empty. A sleeping core's
    /// egress still drains at the machine's pace, so phase 4 walks this
    /// set (not the due set) and the domain cannot jump while it is
    /// non-empty.
    egress: Vec<bool>,
    egress_count: usize,
    /// Component steps executed since the last [`DomainState::take_steps`].
    core_steps: u64,
    partition_steps: u64,
}

impl DomainState {
    fn new(cores: Range<usize>, parts: Range<usize>) -> Self {
        DomainState {
            timeq: TimeQ::new(cores.len() + parts.len()),
            core_due: vec![false; cores.len()],
            part_due: vec![false; parts.len()],
            credited: vec![0; cores.len()],
            egress: vec![false; cores.len()],
            egress_count: 0,
            core_steps: 0,
            partition_steps: 0,
            cores,
            parts,
        }
    }

    /// Returns and resets the `(core, partition)` step tallies.
    pub(crate) fn take_steps(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.core_steps),
            std::mem::take(&mut self.partition_steps),
        )
    }
}

/// Splits a machine into contiguous domains, one per worker (at most one
/// per core). Later domains may own fewer components, or no partitions at
/// all when workers outnumber the partition chunks. Every component keeps
/// the engine state it had under the layout `old` (empty when there is
/// none worth keeping): regrouping components is no reason to re-derive.
pub(crate) fn layout(
    workers: usize,
    n_cores: usize,
    n_parts: usize,
    old: &[DomainState],
) -> Vec<DomainState> {
    let core_chunk = n_cores.div_ceil(workers.clamp(1, n_cores));
    let d = n_cores.div_ceil(core_chunk);
    let part_chunk = n_parts.div_ceil(d);
    let mut new: Vec<DomainState> = (0..d)
        .map(|w| {
            let (c0, p0) = (w * core_chunk, (w * part_chunk).min(n_parts));
            DomainState::new(
                c0..(c0 + core_chunk).min(n_cores),
                p0..(p0 + part_chunk).min(n_parts),
            )
        })
        .collect();
    // Between spans every core is charged up to the current cycle.
    let now = old.first().map_or(0, |from| from.credited[0]);
    for to in &mut new {
        to.timeq.reset(now);
        to.credited.fill(now);
    }
    for from in old {
        for (lc, c) in from.cores.clone().enumerate() {
            let to = &mut new[c / core_chunk];
            let nc = c - to.cores.start;
            to.timeq.schedule(nc, from.timeq.when(lc));
            to.egress[nc] = from.egress[lc];
            to.egress_count += usize::from(from.egress[lc]);
        }
        for (lp, p) in from.parts.clone().enumerate() {
            let to = &mut new[p / part_chunk];
            let comp = to.cores.len() + p - to.parts.start;
            to.timeq
                .schedule(comp, from.timeq.when(from.cores.len() + lp));
        }
    }
    new
}

/// One domain for the duration of a run span: its slices of the machine
/// plus its persistent engine state.
pub(crate) struct Domain<'a> {
    cores: &'a mut [SimtCore],
    partitions: &'a mut [MemoryPartition],
    /// Responses waiting for response-network space, per partition.
    resp_backlog: &'a mut [VecDeque<MemRequest>],
    /// Ejected requests a full partition ingress refused, per partition.
    ingress_backlog: &'a mut [VecDeque<MemRequest>],
    pub(crate) state: &'a mut DomainState,
    /// Crossbar admissions per core per cycle (`xbar_requests_per_cycle`).
    rate: usize,
    /// Machine-wide partition count (for request address interleaving).
    n_partitions: usize,
}

/// Views the machine's flat component vectors as the domains of `states`,
/// in order.
pub(crate) fn views<'a>(
    states: &'a mut [DomainState],
    mut cores: &'a mut [SimtCore],
    mut partitions: &'a mut [MemoryPartition],
    mut resp_backlog: &'a mut [VecDeque<MemRequest>],
    mut ingress_backlog: &'a mut [VecDeque<MemRequest>],
    cfg: &GpuConfig,
) -> impl Iterator<Item = Domain<'a>> {
    fn front<'s, T>(rest: &mut &'s mut [T], n: usize) -> &'s mut [T] {
        let (head, tail) = std::mem::take(rest).split_at_mut(n);
        *rest = tail;
        head
    }
    let (rate, n_partitions) = (cfg.xbar_requests_per_cycle, cfg.n_partitions);
    states.iter_mut().map(move |state| {
        let (nc, np) = (state.cores.len(), state.parts.len());
        Domain {
            cores: front(&mut cores, nc),
            partitions: front(&mut partitions, np),
            resp_backlog: front(&mut resp_backlog, np),
            ingress_backlog: front(&mut ingress_backlog, np),
            state,
            rate,
            n_partitions,
        }
    })
}

/// Batch-credits `core`'s skipped fast-path cycles up to (excluding)
/// `now`. Must run *before* `receive`/`pop_request`: the credit reads the
/// sleep kind those calls clear.
fn credit_core(core: &mut SimtCore, credited: &mut u64, now: u64) {
    if *credited < now {
        core.credit_idle_cycles(now - *credited);
        *credited = now;
    }
}

impl Domain<'_> {
    /// Derives every wake time, the egress-pending set and the credit
    /// watermarks from component state at `now`, a span boundary (every
    /// core is charged up to `now` there). The simulated machine cannot
    /// tell derived state from state carried along: a wake time only ever
    /// errs on the early side, and an early step is a no-op. The step
    /// *counts* can (phase 5 of [`Domain::step_cycle`] wakes a partition
    /// one cycle after fresh ingress even when its controller is full),
    /// which is why state is carried wherever it is still valid.
    pub(crate) fn derive_wake_state(&mut self, now: u64) {
        let st = &mut *self.state;
        st.timeq.reset(now);
        st.egress_count = 0;
        for (lc, core) in self.cores.iter().enumerate() {
            st.credited[lc] = now;
            st.egress[lc] = core.has_egress();
            st.egress_count += usize::from(st.egress[lc]);
            st.timeq.schedule(lc, core.next_event(now));
        }
        for lp in 0..self.partitions.len() {
            let wake = self.partition_wake(lp, now);
            self.state.timeq.schedule(self.cores.len() + lp, wake);
        }
    }

    /// Partition `lp`'s wake time seen from cycle `from`: its own next
    /// event, or `from` while either backlog holds something (staging and
    /// ingress retries happen every cycle).
    fn partition_wake(&self, lp: usize, from: u64) -> u64 {
        if self.resp_backlog[lp].is_empty() && self.ingress_backlog[lp].is_empty() {
            self.partitions[lp].next_event(from)
        } else {
            from
        }
    }

    /// The earliest cycle `>= from` at which the domain has work of its
    /// own: `from` while egress is pending (it drains once per cycle even
    /// though its holders may be asleep), else the wheel's next wake.
    pub(crate) fn next_event(&self, from: u64) -> u64 {
        if self.state.egress_count > 0 {
            from
        } else {
            self.state.timeq.next_at()
        }
    }

    /// Advances the domain over `[from, end)`, jumping from event to event:
    /// each iteration either steps the due components of one cycle or
    /// skips to the next wake or fabric delivery. The machine advances
    /// exactly as if every component had been stepped every cycle.
    pub(crate) fn advance(&mut self, from: u64, end: u64, fabric: &mut impl Fabric) {
        let mut t = from;
        while t < end {
            let next = self.next_event(t).min(fabric.next_delivery());
            if next > t {
                if next >= end {
                    break; // the cycle at `end` belongs to the next span
                }
                t = next;
            }
            self.step_cycle(t, fabric);
            t += 1;
        }
    }

    /// One machine cycle restricted to this domain's due components.
    /// Bit-identical to stepping every component: a partition or crossbar
    /// is only skipped while its step would be a strict no-op (its "next
    /// event at" contract), and a skipped core's counters-only fast path is
    /// credited in batch before anything can observe or change its state.
    fn step_cycle(&mut self, t: u64, fabric: &mut impl Fabric) {
        let st = &mut *self.state;
        let n_lc = self.cores.len();
        let n_lp = self.partitions.len();
        fabric.begin_cycle(t);
        {
            let (core_due, part_due) = (&mut st.core_due, &mut st.part_due);
            st.timeq.advance(t, |comp| {
                let comp = comp as usize;
                if comp < n_lc {
                    core_due[comp] = true;
                } else {
                    part_due[comp - n_lc] = true;
                }
            });
        }

        // 1. Due partitions produce responses and stage them toward the
        //    response network. A non-empty backlog keeps its partition due,
        //    so non-due partitions have nothing staged.
        for lp in 0..n_lp {
            if !st.part_due[lp] {
                continue;
            }
            st.partition_steps += 1;
            self.partitions[lp].step_into(t, &mut self.resp_backlog[lp]);
            if self.resp_backlog[lp].is_empty() {
                continue;
            }
            for _ in 0..fabric.resp_budget(lp) {
                let Some(resp) = self.resp_backlog[lp].pop_front() else {
                    break;
                };
                fabric.push_resp(lp, resp.core.index(), resp);
            }
        }

        // 2. Deliver responses to cores, crediting a woken core's skipped
        //    cycles before `receive` clears its sleep state.
        {
            let (cores, credited, core_due) =
                (&mut *self.cores, &mut st.credited, &mut st.core_due);
            fabric.deliver_resps(|lc, resp| {
                credit_core(&mut cores[lc], &mut credited[lc], t);
                cores[lc].receive(resp);
                core_due[lc] = true;
            });
        }

        // 3. Due cores execute (skipped-cycle credit first, so the step
        //    observes exactly the state per-cycle stepping would). A step
        //    can enqueue egress, so the egress-pending set is refreshed.
        for lc in 0..n_lc {
            if !st.core_due[lc] {
                continue;
            }
            st.core_steps += 1;
            credit_core(&mut self.cores[lc], &mut st.credited[lc], t);
            self.cores[lc].step(t);
            st.credited[lc] = t + 1;
            let has = self.cores[lc].has_egress();
            if has != st.egress[lc] {
                st.egress[lc] = has;
                if has {
                    st.egress_count += 1;
                } else {
                    st.egress_count -= 1;
                }
            }
        }

        // 4. Core egress into the request network — every core with queued
        //    requests, due or not: a struct-stalled core sleeps while its
        //    queue drains at the machine's pace, and the pop wakes it.
        //    Skipped cycles are credited before the pop can clear the
        //    sleep, keeping the lazy-credit bookkeeping exact.
        if st.egress_count > 0 {
            for lc in 0..n_lc {
                if !st.egress[lc] {
                    continue;
                }
                let mut popped = false;
                for _ in 0..fabric.req_budget(lc).min(self.rate) {
                    let Some(req) = self.cores[lc].peek_request() else {
                        break;
                    };
                    let dest = req.addr.partition(self.n_partitions);
                    credit_core(&mut self.cores[lc], &mut st.credited[lc], t + 1);
                    let req = self.cores[lc].pop_request().expect("peeked");
                    fabric.push_req(lc, dest, req);
                    popped = true;
                }
                if popped {
                    if !self.cores[lc].has_egress() {
                        st.egress[lc] = false;
                        st.egress_count -= 1;
                    }
                    // A pop may have woken a struct-stalled sleeper; a
                    // non-due core is not rescheduled by the epilogue, so
                    // do it here.
                    if !st.core_due[lc] {
                        st.timeq.schedule(lc, self.cores[lc].next_event(t + 1));
                    }
                }
            }
        }

        // 5. Eject requests into the ingress backlogs (arbitration order),
        //    then every backlog drain-retries into its partition.
        {
            let backlog = &mut *self.ingress_backlog;
            fabric.eject_reqs(|lp, req| backlog[lp].push_back(req));
        }
        for lp in 0..n_lp {
            if self.ingress_backlog[lp].is_empty() {
                continue;
            }
            while let Some(req) = self.ingress_backlog[lp].front().copied() {
                if self.partitions[lp].push(req).is_err() {
                    break;
                }
                self.ingress_backlog[lp].pop_front();
            }
            // Fresh ingress (or a retry) makes the partition due next
            // cycle — unconditionally, even if a full controller makes that
            // step a no-op. Due partitions are rescheduled below.
            if !st.part_due[lp] {
                st.timeq.schedule_min(n_lc + lp, t + 1);
            }
        }

        // Reschedule everything stepped this cycle and clear the flags.
        for lc in 0..n_lc {
            if std::mem::take(&mut st.core_due[lc]) {
                st.timeq.schedule(lc, self.cores[lc].next_event(t + 1));
            }
        }
        for lp in 0..n_lp {
            if std::mem::take(&mut self.state.part_due[lp]) {
                let wake = self.partition_wake(lp, t + 1);
                self.state.timeq.schedule(n_lc + lp, wake);
            }
        }
    }

    /// Batch-credits every core's per-cycle counters up to `now`, the end
    /// of a span, so every external read between spans (counters,
    /// snapshots, knob logic) sees exactly the per-cycle state. Cores with
    /// uncredited cycles are necessarily sleeping (awake cores are stepped
    /// — and credited — every cycle), so the batch credit is valid.
    pub(crate) fn flush_credits(&mut self, now: u64) {
        for (core, credited) in self.cores.iter_mut().zip(&mut self.state.credited) {
            credit_core(core, credited, now);
        }
    }
}

/// Phase byte: shut the worker down (end of the run span).
pub(crate) const PHASE_EXIT: u8 = 0;
/// Phase byte: step the domain through one lookahead window.
pub(crate) const PHASE_WINDOW: u8 = 1;

/// Longest lookahead window in cycles: admission refunds and the
/// stepped-cycle report are `u64` bitmasks indexed by window offset, so a
/// window never exceeds 64 cycles even on configurations with a larger
/// crossbar latency.
pub(crate) const MAX_WINDOW: u64 = 64;

/// Bounded spin before blocking on a condvar. Windows are microseconds
/// apart when the host has spare cores, so a short spin usually avoids
/// the syscall; on a single-core host any spinning burns the timeslice of
/// the very thread being waited on, so the limit drops to zero and both
/// [`Gate::wait`] and [`Latch::wait`] block immediately.
fn spin_limit() -> u32 {
    static LIMIT: OnceLock<u32> = OnceLock::new();
    *LIMIT.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 128,
        _ => 0,
    })
}

/// Coordinator-to-workers window broadcast.
///
/// `release` publishes a `(phase, now)` pair by bumping `epoch` under the
/// mutex; `wait` spins briefly on the epoch then blocks on the condvar.
/// The epoch bump inside the mutex is what makes the sleep race-free: a
/// waiter re-checks the epoch under the same mutex before sleeping, so a
/// release cannot slip between its check and its wait.
pub(crate) struct Gate {
    epoch: AtomicU64,
    phase: AtomicU8,
    now: AtomicU64,
    /// Index of a domain whose window body panicked (`usize::MAX`: none).
    failed: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    pub(crate) fn new() -> Self {
        Gate {
            epoch: AtomicU64::new(0),
            phase: AtomicU8::new(PHASE_EXIT),
            now: AtomicU64::new(0),
            failed: AtomicUsize::new(usize::MAX),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Publishes the next window to every worker. Must only be called
    /// while all workers are parked in [`Gate::wait`] (the coordinator
    /// guarantees this by waiting on the [`Latch`] between releases).
    pub(crate) fn release(&self, phase: u8, now: u64) {
        self.phase.store(phase, Ordering::Relaxed);
        self.now.store(now, Ordering::Relaxed);
        let _guard = self.lock.lock().expect("gate lock poisoned");
        // Release-ordered so the phase/now stores above (and all mailbox
        // writes before them) are visible to the acquire load in `wait`.
        self.epoch.fetch_add(1, Ordering::Release);
        self.cv.notify_all();
    }

    /// Blocks until the epoch moves past `seen`; returns the new epoch and
    /// the published `(phase, now)` pair.
    pub(crate) fn wait(&self, seen: u64) -> (u64, u8, u64) {
        for _ in 0..spin_limit() {
            let e = self.epoch.load(Ordering::Acquire);
            if e != seen {
                return (
                    e,
                    self.phase.load(Ordering::Relaxed),
                    self.now.load(Ordering::Relaxed),
                );
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("gate lock poisoned");
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            if e != seen {
                return (
                    e,
                    self.phase.load(Ordering::Relaxed),
                    self.now.load(Ordering::Relaxed),
                );
            }
            guard = self.cv.wait(guard).expect("gate lock poisoned");
        }
    }

    /// Marks the run as failed: `domain`'s window body panicked. The
    /// coordinator checks this after every window and shuts the remaining
    /// workers down instead of deadlocking on a latch that will never fill.
    pub(crate) fn fail(&self, domain: usize) {
        self.failed.store(domain, Ordering::Release);
    }

    /// The domain whose window body panicked, if any.
    pub(crate) fn failed(&self) -> Option<usize> {
        Some(self.failed.load(Ordering::Acquire)).filter(|&d| d != usize::MAX)
    }
}

/// The coordinator's re-raise after a domain worker panicked: names the
/// culprit, since the worker's own message only says what went wrong.
pub(crate) fn failure_message(
    domain: usize,
    cores: Range<usize>,
    parts: Range<usize>,
    t0: u64,
) -> String {
    format!(
        "intra-sim domain {domain} (cores {cores:?}, partitions {parts:?}) panicked in the \
         window starting at cycle {t0}; its own panic message is above"
    )
}

/// Workers-to-coordinator completion countdown, reset before each release.
pub(crate) struct Latch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    pub(crate) fn new() -> Self {
        Latch {
            remaining: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Arms the latch for `n` arrivals. Must only be called while no worker
    /// is mid-window (the coordinator resets immediately before a release).
    pub(crate) fn reset(&self, n: usize) {
        self.remaining.store(n, Ordering::Release);
    }

    /// Records one worker's window completion; wakes the coordinator on
    /// the last arrival.
    pub(crate) fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock before notifying closes the race against a
            // coordinator that checked `remaining` and is about to sleep.
            let _guard = self.lock.lock().expect("latch lock poisoned");
            self.cv.notify_all();
        }
    }

    /// Blocks until every armed arrival has happened.
    pub(crate) fn wait(&self) {
        for _ in 0..spin_limit() {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("latch lock poisoned");
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.cv.wait(guard).expect("latch lock poisoned");
        }
    }
}

/// One crossbar's admission budget for a domain's ports over a window.
pub(crate) struct Budget {
    /// Free slots of each local input port at the window start.
    pub(crate) free: Vec<u32>,
    /// Per local port: bit `k` set means a forward-simulated grant left
    /// the port at window offset `k`, so the slot is reusable from offset
    /// `k + 1` on.
    pub(crate) refund: Vec<u64>,
    /// Pushes staged so far this window, per local port.
    used: Vec<u32>,
}

impl Budget {
    fn new(ports: usize) -> Self {
        Budget {
            free: vec![0; ports],
            refund: vec![0; ports],
            used: vec![0; ports],
        }
    }

    /// Slots `port` may still fill at window offset `off`. Refunds at
    /// strictly earlier offsets only: within a cycle pushes precede the
    /// crossbar's grants, so a same-cycle grant cannot free a slot for a
    /// same-cycle push.
    fn left(&self, port: usize, off: u64) -> usize {
        let refunded = (self.refund[port] & ((1u64 << off) - 1)).count_ones();
        (self.free[port] + refunded - self.used[port]) as usize
    }
}

/// Per-domain exchange buffer and the domain's windowed [`Fabric`]. Only
/// ever touched by its worker while a window is in flight and by the
/// coordinator while the worker is parked, so the mutex around it is
/// uncontended by protocol; it exists to carry the happens-before edges in
/// safe code. All vectors are reused across windows (drained, never
/// dropped), so the steady state allocates nothing.
pub(crate) struct Mailbox {
    // Coordinator → worker, filled before each release.
    /// Window length in cycles (1 ..= [`MAX_WINDOW`]).
    pub(crate) win_len: u64,
    /// Forward-simulated response grants
    /// `(window offset, local core, response)`, ascending offset,
    /// arbitration order within a cycle.
    pub(crate) grants: VecDeque<(u64, usize, MemRequest)>,
    /// Forward-simulated request ejections
    /// `(window offset, local partition, request)`, same ordering.
    pub(crate) ejects: VecDeque<(u64, usize, MemRequest)>,
    /// Request-network admission, per local core.
    pub(crate) req: Budget,
    /// Response-network admission, per local partition.
    pub(crate) resp: Budget,

    // Worker → coordinator, filled during the window.
    /// Responses staged toward the response network:
    /// `(window offset, local partition port, destination core,
    /// response)`, ascending offset, backlog order within a cycle.
    pub(crate) staged_resps: Vec<(u64, usize, usize, MemRequest)>,
    /// Requests staged toward the request network:
    /// `(window offset, local core port, destination partition, request)`.
    pub(crate) staged_reqs: Vec<(u64, usize, usize, MemRequest)>,
    /// Bit `k` set: this domain stepped at window offset `k`. The
    /// coordinator ORs all domains' masks with its own crossbar-due bits
    /// to reconstruct the exact stepped/fast-forwarded cycle split.
    pub(crate) stepped_mask: u64,
    /// The domain's earliest future event at the window end (the window
    /// end itself while egress is pending, [`NEVER`] when fully asleep) —
    /// the coordinator's input for jumping over machine-wide idle
    /// stretches between windows.
    pub(crate) next_event: u64,
    /// Component steps executed this window.
    pub(crate) core_steps: u64,
    pub(crate) partition_steps: u64,

    /// The window's start cycle and the offset of the cycle being stepped.
    t0: u64,
    off: u64,
}

impl Mailbox {
    pub(crate) fn new(n_cores: usize, n_parts: usize) -> Self {
        Mailbox {
            win_len: 0,
            grants: VecDeque::new(),
            ejects: VecDeque::new(),
            req: Budget::new(n_cores),
            resp: Budget::new(n_parts),
            staged_resps: Vec::new(),
            staged_reqs: Vec::new(),
            stepped_mask: 0,
            next_event: NEVER,
            core_steps: 0,
            partition_steps: 0,
            t0: 0,
            off: 0,
        }
    }

    /// Steps `domain` through the window `[t0, t0 + win_len)` the
    /// coordinator filled in, and leaves the domain's report behind.
    fn run_window(&mut self, domain: &mut Domain<'_>, t0: u64) {
        let end = t0 + self.win_len;
        self.t0 = t0;
        self.req.used.fill(0);
        self.resp.used.fill(0);
        self.stepped_mask = 0;
        domain.advance(t0, end, self);
        debug_assert!(self.grants.is_empty(), "all grants must be consumed");
        debug_assert!(self.ejects.is_empty(), "all ejects must be consumed");
        self.next_event = domain.next_event(end);
        (self.core_steps, self.partition_steps) = domain.state.take_steps();
    }
}

/// Pops the deliveries tagged with window offset `off` off the front of
/// `tagged` (ascending offsets) into `sink`.
fn drain_offset(
    tagged: &mut VecDeque<(u64, usize, MemRequest)>,
    off: u64,
    mut sink: impl FnMut(usize, MemRequest),
) {
    while let Some(&(at, port, payload)) = tagged.front() {
        debug_assert!(at >= off, "deliveries are consumed in order");
        if at != off {
            break;
        }
        tagged.pop_front();
        sink(port, payload);
    }
}

impl Fabric for Mailbox {
    fn begin_cycle(&mut self, t: u64) {
        self.off = t - self.t0;
        self.stepped_mask |= 1u64 << self.off;
    }

    fn resp_budget(&self, lp: usize) -> usize {
        self.resp.left(lp, self.off)
    }

    fn push_resp(&mut self, lp: usize, dest: usize, resp: MemRequest) {
        self.staged_resps.push((self.off, lp, dest, resp));
        self.resp.used[lp] += 1;
    }

    fn deliver_resps(&mut self, deliver: impl FnMut(usize, MemRequest)) {
        drain_offset(&mut self.grants, self.off, deliver);
    }

    fn req_budget(&self, lc: usize) -> usize {
        self.req.left(lc, self.off)
    }

    fn push_req(&mut self, lc: usize, dest: usize, req: MemRequest) {
        self.staged_reqs.push((self.off, lc, dest, req));
        self.req.used[lc] += 1;
    }

    fn eject_reqs(&mut self, eject: impl FnMut(usize, MemRequest)) {
        drain_offset(&mut self.ejects, self.off, eject);
    }

    fn next_delivery(&self) -> u64 {
        let at = |e: Option<&(u64, usize, MemRequest)>| e.map_or(NEVER, |e| self.t0 + e.0);
        at(self.grants.front()).min(at(self.ejects.front()))
    }
}

/// Worker thread body: park on the gate, run each released window
/// against the domain, arrive at the latch, repeat until `PHASE_EXIT`,
/// then credit the domain's sleepers up to the span end.
///
/// A panic inside a window body marks the gate as failed *before*
/// arriving, so the coordinator (which checks after every latch wait)
/// shuts the other workers down instead of deadlocking; the payload is
/// then re-raised so it propagates through the thread scope's join.
pub(crate) fn worker_loop(
    mut domain: Domain<'_>,
    index: usize,
    gate: &Gate,
    latch: &Latch,
    mailbox: &Mutex<Mailbox>,
) {
    let mut epoch = 0u64;
    loop {
        let (e, phase, t0) = gate.wait(epoch);
        epoch = e;
        if phase == PHASE_EXIT {
            domain.flush_credits(t0); // the exit broadcast carries the span end
            break;
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut mb = mailbox.lock().expect("mailbox poisoned");
            mb.run_window(&mut domain, t0);
        }));
        if let Err(payload) = result {
            gate.fail(index);
            latch.arrive();
            resume_unwind(payload);
        }
        latch.arrive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_latch_round_trip() {
        let gate = Gate::new();
        let latch = Latch::new();
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut epoch = 0u64;
                    loop {
                        let (e, phase, now) = gate.wait(epoch);
                        epoch = e;
                        if phase == PHASE_EXIT {
                            break;
                        }
                        hits.fetch_add(now as usize, Ordering::Relaxed);
                        latch.arrive();
                    }
                });
            }
            for cycle in 1..=10u64 {
                latch.reset(3);
                gate.release(PHASE_WINDOW, cycle);
                latch.wait();
                assert_eq!(
                    hits.load(Ordering::Relaxed),
                    3 * (1..=cycle).sum::<u64>() as usize,
                    "every worker must run exactly once per release"
                );
            }
            gate.release(PHASE_EXIT, 0);
        });
    }

    #[test]
    fn latch_wait_returns_immediately_when_empty() {
        let latch = Latch::new();
        latch.reset(0);
        latch.wait(); // must not block
    }

    #[test]
    fn gate_failure_names_the_domain() {
        let gate = Gate::new();
        assert_eq!(gate.failed(), None);
        gate.fail(0);
        assert_eq!(gate.failed(), Some(0), "domain 0 is a valid culprit");
        gate.fail(2);
        assert_eq!(gate.failed(), Some(2));
        let msg = failure_message(2, 4..6, 1..2, 1234);
        for part in ["domain 2", "cores 4..6", "partitions 1..2", "cycle 1234"] {
            assert!(msg.contains(part), "`{msg}` must name `{part}`");
        }
    }

    #[test]
    fn layout_covers_the_machine_in_contiguous_chunks() {
        for (workers, n_cores, n_parts) in [(1, 4, 2), (3, 4, 2), (4, 4, 2), (7, 6, 1), (9, 2, 4)] {
            let domains = layout(workers, n_cores, n_parts, &[]);
            assert!(domains.len() <= workers.min(n_cores));
            let (mut c, mut p) = (0, 0);
            for d in &domains {
                assert_eq!((d.cores.start, d.parts.start), (c, p));
                assert!(!d.cores.is_empty(), "every domain owns a core");
                assert!(
                    d.cores.len() <= domains[0].cores.len()
                        && d.parts.len() <= domains[0].parts.len(),
                    "the first domain owns a full chunk (the coordinator routes by it)"
                );
                (c, p) = (d.cores.end, d.parts.end);
            }
            assert_eq!((c, p), (n_cores, n_parts), "nothing is left unowned");
        }
    }

    #[test]
    fn relayout_carries_every_components_state_over() {
        let mut one = layout(1, 4, 2, &[]);
        let st = &mut one[0];
        st.credited.fill(100);
        st.timeq.reset(100);
        for (comp, at) in [(0, 105), (2, 100), (3, 4_000), (5, 170)] {
            st.timeq.schedule(comp, at);
        }
        st.egress[3] = true;
        st.egress_count = 1;
        let split = layout(4, 4, 2, &one);
        let wakes = |d: &DomainState| -> Vec<u64> {
            (0..d.cores.len() + d.parts.len())
                .map(|comp| d.timeq.when(comp))
                .collect()
        };
        // Four one-core domains; the two partitions go to the first two.
        assert_eq!(wakes(&split[0]), [105, NEVER]);
        assert_eq!(wakes(&split[1]), [NEVER, 170]);
        assert_eq!(wakes(&split[2]), [100]);
        assert_eq!(wakes(&split[3]), [4_000]);
        assert_eq!(split[3].egress_count, 1);
        assert!(split.iter().all(|d| d.credited.iter().all(|&c| c == 100)));
        let merged = layout(1, 4, 2, &split);
        assert_eq!(wakes(&merged[0]), wakes(&one[0]));
        assert_eq!(merged[0].egress, one[0].egress);
    }

    #[test]
    fn mailbox_sized_to_domain() {
        let mb = Mailbox::new(3, 1);
        assert_eq!(mb.req.free.len(), 3);
        assert_eq!(mb.req.refund.len(), 3);
        assert_eq!(mb.resp.free.len(), 1);
        assert_eq!(mb.resp.refund.len(), 1);
        assert_eq!(mb.next_event, NEVER);
    }

    #[test]
    fn budget_refunds_only_strictly_earlier_grants() {
        let mut b = Budget::new(1);
        b.free[0] = 1;
        b.refund[0] = 0b0100; // a grant leaves the port at offset 2
        assert_eq!(b.left(0, 2), 1, "offset 2 itself sees no refund");
        b.used[0] = 1;
        assert_eq!(b.left(0, 2), 0);
        assert_eq!(b.left(0, 3), 1, "offset 3 reuses the freed slot");
    }

    #[test]
    fn spin_limit_is_zero_on_single_core_hosts() {
        let limit = spin_limit();
        match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => assert!(limit > 0),
            _ => assert_eq!(limit, 0, "single-core host must not spin"),
        }
    }
}
