//! The production cycle kernel: one five-phase machine cycle over the
//! machine's SIMT cores and memory partitions, and the crossbar fabric it
//! runs against.
//!
//! A [`Domain`] is the machine's cores and memory partitions with their
//! staging backlogs, plus the [`DomainState`] the engine keeps for them
//! between run spans: per-component due flags for the components awake at
//! the next cycle, a table of the sleepers' wake times that fires into
//! the same flags, lazy idle-credit watermarks and the egress-pending
//! set. [`Domain::step_cycle`] is the only production copy
//! of the machine cycle (partitions → response delivery → cores → egress →
//! ejection/ingress); [`Domain::advance`] is the only jump-or-step loop
//! around it. [`DirectFabric`] owns both crossbars for the span and pushes,
//! arbitrates and delivers in-cycle, at any crossbar latency including
//! zero. Everything runs on the calling thread; parallelism lives one level
//! up, across independent simulations ([`crate::exec`]).

use crate::timeq::{TimeQ, NEVER};
use gpu_mem::req::MemRequest;
use gpu_mem::{Crossbar, MemoryPartition};
use gpu_simt::SimtCore;
use gpu_types::GpuConfig;
use gpu_workloads::AppStream;
use std::collections::VecDeque;

/// The machine's cores: statically dispatched over the one stream type
/// applications are built from.
pub(crate) type Core = SimtCore<AppStream>;

/// The cycle from which `net` can next deliver, seen from cycle `from`:
/// its earliest head-of-line ready time clamped to `from`, [`NEVER`] when
/// it is empty. Pushes never lower it (a new flit is ready no earlier than
/// every flit already buffered), so it only needs recomputing after the
/// net was stepped.
fn net_due(net: &Crossbar<MemRequest>, from: u64) -> u64 {
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

/// How the domain's flits cross the two crossbars during one cycle: both
/// nets, driven in-cycle. Core `c` feeds request-network port `c`,
/// partition `p` feeds response-network port `p`.
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

    /// Opens cycle `t`: the domain has work there, and the fabric records
    /// the cycle as stepped.
    fn begin_cycle(&mut self, t: u64) {
        self.now = t;
        self.stepped_cycles += 1;
    }

    /// Responses partition `lp` may still push this cycle.
    fn resp_budget(&self, lp: usize) -> usize {
        self.resp.net.free_slots(lp)
    }

    /// Pushes a response from partition `lp` toward core `dest`; the
    /// caller stays within [`DirectFabric::resp_budget`].
    fn push_resp(&mut self, lp: usize, dest: usize, resp: MemRequest) {
        self.resp.push(lp, dest, resp, self.now);
    }

    /// Hands this cycle's response grants to `deliver(core, response)` in
    /// arbitration order.
    fn deliver_resps(&mut self, deliver: impl FnMut(usize, MemRequest)) {
        self.xbar_steps += self.resp.step(self.now, deliver);
    }

    /// Requests core `lc` may still push this cycle.
    fn req_budget(&self, lc: usize) -> usize {
        self.req.net.free_slots(lc)
    }

    /// Pushes a request from core `lc` toward partition `dest`; the caller
    /// stays within [`DirectFabric::req_budget`].
    fn push_req(&mut self, lc: usize, dest: usize, req: MemRequest) {
        self.req.push(lc, dest, req, self.now);
    }

    /// Hands this cycle's request ejections to `eject(partition, request)`
    /// in arbitration order.
    fn eject_reqs(&mut self, eject: impl FnMut(usize, MemRequest)) {
        self.xbar_steps += self.req.step(self.now, eject);
    }

    /// The earliest cycle at which the fabric has something to deliver
    /// ([`NEVER`] when nothing is in flight).
    fn next_delivery(&self) -> u64 {
        self.req.due_at.min(self.resp.due_at)
    }
}

/// What the engine keeps for the domain between run spans. All of it is
/// derived from component state by [`Domain::derive_wake_state`] and stays
/// exact until the machine's one invalidation rule fires
/// (`Gpu::invalidate_wake_state`).
pub(crate) struct DomainState {
    /// One wake time per sleeping component: cores at `0..n`, partitions
    /// after them. A component awake at the next cycle is not in the table.
    timeq: TimeQ,
    /// Per component, indexed like the table: whether it steps at the next
    /// cycle the domain opens. Between cycles the set flags are the awake
    /// components (`n_awake` of them) and opening a cycle fires the table's
    /// due sleepers into the same flags. The awake components bypass the
    /// table: booking them there too, to fire on the next cycle, measured
    /// 2–4 % slower on the benchmark workloads (2-vCPU x86-64 host).
    due: Vec<bool>,
    n_awake: usize,
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
    pub(crate) fn new(n_cores: usize, n_parts: usize) -> Self {
        DomainState {
            timeq: TimeQ::new(n_cores + n_parts),
            due: vec![false; n_cores + n_parts],
            n_awake: 0,
            credited: vec![0; n_cores],
            egress: vec![false; n_cores],
            egress_count: 0,
            core_steps: 0,
            partition_steps: 0,
        }
    }

    /// Books component `comp`'s wake time `wake >= next`, where `next` is
    /// the next cycle the domain can open: awake then, it is flagged due
    /// and leaves the table; otherwise the table holds it.
    fn book(&mut self, comp: usize, wake: u64, next: u64) {
        debug_assert!(wake >= next && !self.due[comp]);
        if wake == next {
            self.timeq.cancel(comp);
            self.due[comp] = true;
            self.n_awake += 1;
        } else {
            self.timeq.schedule(comp, wake);
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

/// The domain for the duration of a run span: the machine's components
/// plus its persistent engine state.
pub(crate) struct Domain<'a> {
    cores: &'a mut [Core],
    partitions: &'a mut [MemoryPartition],
    /// Responses waiting for response-network space, per partition.
    resp_backlog: &'a mut [VecDeque<MemRequest>],
    /// Ejected requests a full partition ingress refused, per partition.
    ingress_backlog: &'a mut [VecDeque<MemRequest>],
    pub(crate) state: &'a mut DomainState,
    /// Crossbar admissions per core per cycle (`xbar_requests_per_cycle`).
    rate: usize,
    /// Partition count (for request address interleaving).
    n_partitions: usize,
}

/// Batch-credits `core`'s skipped fast-path cycles up to (excluding)
/// `now`. Must run *before* `receive`/`pop_request`: the credit reads the
/// sleep kind those calls clear.
fn credit_core(core: &mut Core, credited: &mut u64, now: u64) {
    if *credited < now {
        core.credit_idle_cycles(now - *credited);
        *credited = now;
    }
}

impl<'a> Domain<'a> {
    /// Views the machine's components and engine state as the domain.
    pub(crate) fn new(
        state: &'a mut DomainState,
        cores: &'a mut [Core],
        partitions: &'a mut [MemoryPartition],
        resp_backlog: &'a mut [VecDeque<MemRequest>],
        ingress_backlog: &'a mut [VecDeque<MemRequest>],
        cfg: &GpuConfig,
    ) -> Self {
        Domain {
            cores,
            partitions,
            resp_backlog,
            ingress_backlog,
            state,
            rate: cfg.xbar_requests_per_cycle,
            n_partitions: cfg.n_partitions,
        }
    }

    /// Derives every wake time, the egress-pending set and the credit
    /// watermarks from component state at `now`, a span boundary (every
    /// core is charged up to `now` there). The simulated machine cannot
    /// tell derived state from state carried along: both hold each
    /// component's own next event.
    pub(crate) fn derive_wake_state(&mut self, now: u64) {
        let st = &mut *self.state;
        st.timeq.reset(now);
        st.due.fill(false);
        st.n_awake = 0;
        st.egress_count = 0;
        for (lc, core) in self.cores.iter().enumerate() {
            st.credited[lc] = now;
            st.egress[lc] = core.has_egress();
            st.egress_count += usize::from(st.egress[lc]);
            st.book(lc, core.next_event(now), now);
        }
        for lp in 0..self.partitions.len() {
            let wake = self.partition_wake(lp, now);
            self.state.book(self.cores.len() + lp, wake, now);
        }
    }

    /// Partition `lp`'s wake time seen from cycle `from`: its own next
    /// event, or `from` while responses are staged (staging retries happen
    /// every cycle). Backlogged requests do not keep it awake: every cycle
    /// drains the ingress backlog until the ingress is full, and a full
    /// ingress takes nothing until the partition's own step pops it.
    fn partition_wake(&self, lp: usize, from: u64) -> u64 {
        debug_assert!(
            self.ingress_backlog[lp].is_empty() || !self.partitions[lp].can_accept(),
            "partition {lp} left requests backlogged in front of a free ingress"
        );
        if self.resp_backlog[lp].is_empty() {
            self.partitions[lp].next_event(from)
        } else {
            from
        }
    }

    /// The earliest cycle `>= from` at which the domain has work of its
    /// own: `from` while a component is awake or egress is pending (it
    /// drains once per cycle even though its holders may be asleep), else
    /// the table's next wake.
    fn next_event(&mut self, from: u64) -> u64 {
        if self.state.n_awake > 0 || self.state.egress_count > 0 {
            from
        } else {
            self.state.timeq.next_at()
        }
    }

    /// Advances the domain over `[from, end)`, jumping from event to event:
    /// each iteration either steps the due components of one cycle or
    /// skips to the next wake or fabric delivery. The machine advances
    /// exactly as if every component had been stepped every cycle.
    pub(crate) fn advance(&mut self, from: u64, end: u64, fabric: &mut DirectFabric<'_>) {
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
    fn step_cycle(&mut self, t: u64, fabric: &mut DirectFabric<'_>) {
        let n_lc = self.cores.len();
        let n_lp = self.partitions.len();
        fabric.begin_cycle(t);
        {
            let st = &mut *self.state;
            let due = &mut st.due;
            st.timeq.advance(t, |comp| due[comp as usize] = true);
        }
        self.debug_check_due(t);
        let st = &mut *self.state;

        // 1. Due partitions produce responses and stage them toward the
        //    response network. A non-empty backlog keeps its partition due,
        //    so non-due partitions have nothing staged.
        for lp in 0..n_lp {
            if !st.due[n_lc + lp] {
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
            let (cores, credited, due) = (&mut *self.cores, &mut st.credited, &mut st.due);
            fabric.deliver_resps(|lc, resp| {
                credit_core(&mut cores[lc], &mut credited[lc], t);
                cores[lc].receive(resp);
                due[lc] = true;
            });
        }

        // 3. Due cores execute (skipped-cycle credit first, so the step
        //    observes exactly the state per-cycle stepping would). A step
        //    can enqueue egress, so the egress-pending set is refreshed.
        for lc in 0..n_lc {
            if !st.due[lc] {
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
        //    queue drains at the machine's pace, and the pop that makes
        //    room for a blocked instruction wakes it.
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
                    // A pop that made room for a struct-stalled sleeper woke
                    // it: have the epilogue rebook it like the cores that
                    // stepped. A sleeper it left asleep keeps its booking.
                    st.due[lc] |= self.cores[lc].next_event(t + 1) <= t + 1;
                }
            }
        }

        // 5. Eject requests into the ingress backlogs (arbitration order),
        //    then every backlog drain-retries into its partition. With
        //    that, the partitions touched this cycle are rebooked.
        {
            let backlog = &mut *self.ingress_backlog;
            fabric.eject_reqs(|lp, req| backlog[lp].push_back(req));
        }
        self.state.n_awake = 0;
        for lp in 0..n_lp {
            let fresh = !self.ingress_backlog[lp].is_empty();
            while let Some(req) = self.ingress_backlog[lp].front().copied() {
                if self.partitions[lp].push(req).is_err() {
                    break;
                }
                self.ingress_backlog[lp].pop_front();
            }
            // Only a step or fresh ingress (or a retry) moves a partition's
            // wake; ingress behind a full controller leaves it where it was.
            if std::mem::take(&mut self.state.due[n_lc + lp]) || fresh {
                let wake = self.partition_wake(lp, t + 1);
                self.state.book(n_lc + lp, wake, t + 1);
            }
        }

        // Rebook the cores stepped or woken this cycle.
        let st = &mut *self.state;
        for lc in 0..n_lc {
            if std::mem::take(&mut st.due[lc]) {
                st.book(lc, self.cores[lc].next_event(t + 1), t + 1);
            }
        }
    }

    /// Debug builds hold the due set of cycle `t` — the awake flags plus
    /// what the table just fired — to a scan of the components: one is due
    /// exactly when its next event has come (deliveries add to the set
    /// later in the cycle).
    fn debug_check_due(&self, t: u64) {
        let n_lc = self.cores.len();
        let due = &self.state.due;
        debug_assert!(
            (0..n_lc).all(|lc| due[lc] == (self.cores[lc].next_event(t) <= t)),
            "core due flags diverged from the scan at cycle {t}"
        );
        debug_assert!(
            (0..self.partitions.len())
                .all(|lp| due[n_lc + lp] == (self.partition_wake(lp, t) <= t)),
            "partition due flags diverged from the scan at cycle {t}"
        );
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
