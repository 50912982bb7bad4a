//! The production engine: one four-phase machine cycle over the machine's
//! SIMT cores, memory partitions and crossbars, and the jump-or-step loop
//! around it.
//!
//! [`Gpu::step_cycle`] is the only production copy of the machine cycle
//! (partitions → response delivery → cores with their egress →
//! ejection/ingress), and it visits each component at most once: a core is
//! stepped, drained and booked for its next cycle in one go, and a crossbar
//! step reports its own next delivery. [`Gpu::advance`] is the only
//! jump-or-step loop around it. Between run spans the machine keeps the
//! engine's [`WakeState`]: per-component due flags for the components
//! awake at the next cycle, a table of the sleepers' wake times that fires
//! into the same flags, lazy idle-credit watermarks, the egress-pending set
//! and each crossbar's next delivery. Both crossbars push, arbitrate and
//! deliver in-cycle, at any crossbar latency including zero. Everything
//! runs on the calling thread; parallelism lives one level up, across
//! independent simulations ([`crate::exec`]).

use super::{Core, Gpu};
use crate::timeq::{TimeQ, NEVER};
use gpu_mem::req::MemRequest;
use gpu_mem::{Crossbar, MemoryPartition};
use std::collections::VecDeque;

/// What the engine keeps between run spans. All of it is derived from
/// component state by [`Gpu::derive_wake_state`] and stays exact until the
/// machine's one invalidation rule fires (`Gpu::invalidate_wake_state`).
pub(super) struct WakeState {
    /// One wake time per sleeping component: cores at `0..n`, partitions
    /// after them. A component awake at the next cycle is not in the table.
    timeq: TimeQ,
    /// Per component, indexed like the table, two flags in one byte, so
    /// the core phase tests both with one load:
    /// - [`DUE`]: it steps at the next cycle the engine opens. Between
    ///   cycles the due flags are the awake components (`n_awake` of them)
    ///   and opening a cycle fires the table's due sleepers into the same
    ///   flags. The awake components bypass the table: booking them there
    ///   too, to fire on the next cycle, measured 2–4 % slower on the
    ///   benchmark workloads (2-vCPU x86-64 host).
    /// - [`EGRESS`], cores only: its egress queue is non-empty
    ///   (`egress_count` of them). A sleeping core's egress still drains at
    ///   the machine's pace, so phase 3 visits these cores as well as the
    ///   due ones and the machine cannot jump while one is flagged.
    flags: Vec<u8>,
    n_awake: usize,
    egress_count: usize,
    /// Per core: the cycle up to which its per-cycle counters have been
    /// charged. A sleeping, skipped core is credited in one batch when it
    /// is next touched or when the span ends.
    credited: Vec<u64>,
    /// The request and the response network's [`net_due`] as of their last
    /// step: a net is stepped at cycle `t` iff its due cycle is `<= t`.
    /// [`NEVER`] exactly while the net is empty.
    req_due: u64,
    resp_due: u64,
}

impl WakeState {
    pub(super) fn new(n_cores: usize, n_parts: usize) -> Self {
        WakeState {
            timeq: TimeQ::new(n_cores + n_parts),
            flags: vec![0; n_cores + n_parts],
            n_awake: 0,
            egress_count: 0,
            credited: vec![0; n_cores],
            req_due: NEVER,
            resp_due: NEVER,
        }
    }

    /// Books component `comp`'s wake time `wake >= next`, where `next` is
    /// the next cycle the engine can open: awake then, it is flagged due
    /// and leaves the table; otherwise the table holds it.
    fn book(&mut self, comp: usize, wake: u64, next: u64) {
        debug_assert!(wake >= next && self.flags[comp] & DUE == 0);
        if wake == next {
            self.timeq.cancel(comp);
            self.flags[comp] |= DUE;
            self.n_awake += 1;
        } else {
            self.timeq.schedule(comp, wake);
        }
    }
}

/// [`WakeState::flags`]: the component steps at the next cycle.
const DUE: u8 = 1;
/// [`WakeState::flags`]: the core's egress queue is non-empty.
const EGRESS: u8 = 2;

/// The cycle from which a net can next deliver, seen from cycle `from`,
/// given its `next` delivery (`Crossbar::earliest_head_ready`, or what its
/// last step returned): clamped to `from`, [`NEVER`] when it is empty.
/// Pushes never lower it (a new flit is ready no earlier than every flit
/// already buffered), so only a step changes it.
fn net_due(next: Option<u64>, from: u64) -> u64 {
    next.map_or(NEVER, |t| t.max(from))
}

/// Pushes `flit` from input `port` toward output `dest` of `net` at cycle
/// `now`, within the port's free slots. The first flit into an empty net
/// makes it due after the wire `latency` — this very cycle at latency
/// zero; a populated net's earlier due cycle stands.
fn push_flit(
    net: &mut Crossbar<MemRequest>,
    due: &mut u64,
    latency: u64,
    (port, dest): (usize, usize),
    flit: MemRequest,
    now: u64,
) {
    net.push(port, dest, flit, now)
        .expect("pushed within the admission budget");
    if *due == NEVER {
        *due = now + latency;
    }
}

/// Steps `net` at cycle `now` if it is due, handing its deliveries to
/// `deliver` in arbitration order; returns the number of steps taken.
fn step_net(
    net: &mut Crossbar<MemRequest>,
    due: &mut u64,
    now: u64,
    deliver: impl FnMut(usize, MemRequest),
) -> u64 {
    if *due > now {
        return 0;
    }
    *due = net_due(net.step_with(now, deliver), now + 1);
    1
}

/// A partition's wake time seen from cycle `from`: its own next event, or
/// `from` while responses are `staged` (staging retries happen every
/// cycle). Requests in its ingress `backlog` do not keep it awake: every
/// cycle drains the backlog until the ingress is full, and a full ingress
/// takes nothing until the partition's own step pops it.
fn partition_wake(
    partition: &MemoryPartition,
    staged: &VecDeque<MemRequest>,
    backlog: &VecDeque<MemRequest>,
    from: u64,
) -> u64 {
    debug_assert!(
        backlog.is_empty() || !partition.can_accept(),
        "partition {:?} left requests backlogged in front of a free ingress",
        partition.id
    );
    if staged.is_empty() {
        partition.next_event(from)
    } else {
        from
    }
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

impl Gpu {
    /// A span of the production engine, on the calling thread.
    pub(super) fn run_direct(&mut self, cycles: u64) {
        let (from, end) = (self.now, self.now + cycles);
        if !self.wake_valid {
            self.derive_wake_state(from);
            self.wake_valid = true;
        }
        self.advance(from, end);
        self.flush_credits(end);
        self.now = end;
    }

    /// Derives every wake time, the egress-pending set, the credit
    /// watermarks and both crossbars' due cycles from component state at
    /// `now`, a span boundary (every core is charged up to `now` there).
    /// The simulated machine cannot tell derived state from state carried
    /// along: both hold each component's own next event.
    fn derive_wake_state(&mut self, now: u64) {
        let w = &mut self.wake;
        w.timeq.reset(now);
        w.flags.fill(0);
        w.n_awake = 0;
        w.egress_count = 0;
        w.req_due = net_due(self.req_net.earliest_head_ready(), now);
        w.resp_due = net_due(self.resp_net.earliest_head_ready(), now);
        for (c, core) in self.cores.iter().enumerate() {
            w.credited[c] = now;
            w.flags[c] = if core.has_egress() { EGRESS } else { 0 };
            w.egress_count += usize::from(core.has_egress());
            w.book(c, core.next_event(now), now);
        }
        for (p, partition) in self.partitions.iter().enumerate() {
            let wake = partition_wake(
                partition,
                &self.resp_backlog[p],
                &self.ingress_backlog[p],
                now,
            );
            w.book(self.cores.len() + p, wake, now);
        }
    }

    /// Advances the machine over `[from, end)`, jumping from event to
    /// event: each iteration either steps the due components of one cycle
    /// or skips to the next wake or crossbar delivery. A cycle has work
    /// while a component is awake or egress is pending (it drains once per
    /// cycle even though its holders may be asleep). The machine advances
    /// exactly as if every component had been stepped every cycle.
    fn advance(&mut self, from: u64, end: u64) {
        let mut t = from;
        while t < end {
            let w = &mut self.wake;
            let own = if w.n_awake > 0 || w.egress_count > 0 {
                t
            } else {
                w.timeq.next_at()
            };
            let next = own.min(w.req_due).min(w.resp_due);
            if next > t {
                if next >= end {
                    break; // the cycle at `end` belongs to the next span
                }
                t = next;
            }
            self.step_cycle(t);
            t += 1;
        }
    }

    /// One machine cycle restricted to the due components. Bit-identical to
    /// stepping every component: a partition or crossbar is only skipped
    /// while its step would be a strict no-op (its "next event at"
    /// contract), and a skipped core's counters-only fast path is credited
    /// in batch before anything can observe or change its state.
    fn step_cycle(&mut self, t: u64) {
        self.stepped_cycles += 1;
        let w = &mut self.wake;
        w.timeq.advance(t, |comp| w.flags[comp as usize] |= DUE);
        self.debug_check_due(t);
        let latency = self.cfg.xbar_latency as u64;
        let (rate, n_partitions) = (self.cfg.xbar_requests_per_cycle, self.cfg.n_partitions);
        let w = &mut self.wake;
        // The phases index these slices, not the vectors in `self`: a
        // crossbar call is handed a pointer into `self`, after which the
        // compiler reloads every vector read through `self` (5 % slower on
        // `volta-busy`, measured on a 2-vCPU x86-64 host).
        let cores = &mut self.cores[..];
        let partitions = &mut self.partitions[..];
        let (staged, backlog) = (&mut self.resp_backlog[..], &mut self.ingress_backlog[..]);
        let n_cores = cores.len();

        // 1. Due partitions produce responses and stage them toward the
        //    response network. A non-empty backlog keeps its partition due,
        //    so non-due partitions have nothing staged.
        for p in 0..partitions.len() {
            if w.flags[n_cores + p] & DUE == 0 {
                continue;
            }
            self.partition_steps += 1;
            partitions[p].step_into(t, &mut staged[p]);
            if staged[p].is_empty() {
                continue;
            }
            for _ in 0..self.resp_net.free_slots(p) {
                let Some(resp) = staged[p].pop_front() else {
                    break;
                };
                let route = (p, resp.core().index());
                push_flit(&mut self.resp_net, &mut w.resp_due, latency, route, resp, t);
            }
        }

        // 2. Deliver responses to cores, crediting a woken core's skipped
        //    cycles before `receive` clears its sleep state.
        {
            let (credited, flags) = (&mut w.credited[..], &mut w.flags[..]);
            self.xbar_steps += step_net(&mut self.resp_net, &mut w.resp_due, t, |c, resp| {
                credit_core(&mut cores[c], &mut credited[c], t);
                cores[c].receive(resp);
                flags[c] |= DUE;
            });
        }

        // 3. Due cores execute (skipped-cycle credit first), and every core
        //    with queued requests, due or not, drains them into its own
        //    request-net input, stepped only in phase 4: a struct-stalled
        //    core sleeps while its queue drains, and the pop that makes room
        //    for a blocked instruction wakes it (credit first, again). Each
        //    core that stepped or is awake next cycle is booked for it; a
        //    sleeper left asleep keeps its booking.
        w.n_awake = 0;
        for (c, core) in cores.iter_mut().enumerate() {
            let flags = w.flags[c];
            if flags == 0 {
                continue;
            }
            let stepped = flags & DUE != 0;
            if stepped {
                self.core_steps += 1;
                credit_core(core, &mut w.credited[c], t);
                core.step(t);
                w.credited[c] = t + 1;
            }
            for _ in 0..self.req_net.free_slots(c).min(rate) {
                let Some(req) = core.peek_request() else {
                    break;
                };
                let route = (c, req.addr.partition(n_partitions));
                credit_core(core, &mut w.credited[c], t + 1);
                let req = core.pop_request().expect("peeked");
                push_flit(&mut self.req_net, &mut w.req_due, latency, route, req, t);
            }
            let has = core.has_egress();
            w.egress_count += usize::from(has);
            w.egress_count -= usize::from(flags & EGRESS != 0);
            w.flags[c] = if has { EGRESS } else { 0 };
            let wake = core.next_event(t + 1);
            if stepped || wake == t + 1 {
                w.book(c, wake, t + 1);
            }
        }

        // 4. Eject requests into the ingress backlogs (arbitration order),
        //    then every backlog drain-retries into its partition, and the
        //    partitions touched this cycle are rebooked. A partition with
        //    an empty backlog that was not due has nothing to do here.
        self.xbar_steps += step_net(&mut self.req_net, &mut w.req_due, t, |p, req| {
            backlog[p].push_back(req)
        });
        for p in 0..partitions.len() {
            let fresh = !backlog[p].is_empty();
            if !fresh && w.flags[n_cores + p] & DUE == 0 {
                continue;
            }
            // `push` fails exactly when `can_accept` is false, so a full
            // ingress is passed over without copying the backlog's head.
            while partitions[p].can_accept() {
                let Some(req) = backlog[p].pop_front() else {
                    break;
                };
                partitions[p].push(req).expect("can_accept checked");
            }
            // Only a step or fresh ingress (or a retry) moves a partition's
            // wake; ingress behind a full controller leaves it where it was.
            w.flags[n_cores + p] = 0;
            let wake = partition_wake(&partitions[p], &staged[p], &backlog[p], t + 1);
            w.book(n_cores + p, wake, t + 1);
        }
    }

    /// Debug builds hold the due set of cycle `t` — the awake flags plus
    /// what the table just fired — to a scan of the components: one is due
    /// exactly when its next event has come (deliveries add to the set
    /// later in the cycle). A crossbar is due exactly when its earliest
    /// head-of-line flit is ready.
    fn debug_check_due(&self, t: u64) {
        let n_cores = self.cores.len();
        let w = &self.wake;
        debug_assert!(
            (0..n_cores).all(|c| (w.flags[c] & DUE != 0) == (self.cores[c].next_event(t) <= t)),
            "core due flags diverged from the scan at cycle {t}"
        );
        debug_assert!(
            (0..self.partitions.len()).all(|p| {
                let wake = partition_wake(
                    &self.partitions[p],
                    &self.resp_backlog[p],
                    &self.ingress_backlog[p],
                    t,
                );
                (w.flags[n_cores + p] & DUE != 0) == (wake <= t)
            }),
            "partition due flags diverged from the scan at cycle {t}"
        );
        debug_assert!(
            (w.req_due <= t) == (net_due(self.req_net.earliest_head_ready(), t) <= t)
                && (w.resp_due <= t) == (net_due(self.resp_net.earliest_head_ready(), t) <= t),
            "crossbar due cycles diverged from the scan at cycle {t}"
        );
    }

    /// Batch-credits every core's per-cycle counters up to `now`, the end
    /// of a span, so every external read between spans (counters,
    /// snapshots, knob logic) sees exactly the per-cycle state. Cores with
    /// uncredited cycles are necessarily sleeping (awake cores are stepped
    /// — and credited — every cycle), so the batch credit is valid.
    fn flush_credits(&mut self, now: u64) {
        for (core, credited) in self.cores.iter_mut().zip(&mut self.wake.credited) {
            credit_core(core, credited, now);
        }
    }
}
