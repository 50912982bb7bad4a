//! The production engine: one five-phase machine cycle over the machine's
//! SIMT cores, memory partitions and crossbars, and the jump-or-step loop
//! around it.
//!
//! [`Gpu::step_cycle`] is the only production copy of the machine cycle
//! (partitions → response delivery → cores → egress → ejection/ingress);
//! [`Gpu::advance`] is the only jump-or-step loop around it. Between run
//! spans the machine keeps the engine's [`WakeState`]: per-component due
//! flags for the components awake at the next cycle, a table of the
//! sleepers' wake times that fires into the same flags, lazy idle-credit
//! watermarks, the egress-pending set and each crossbar's next delivery.
//! Both crossbars push, arbitrate and deliver in-cycle, at any crossbar
//! latency including zero. Everything runs on the calling thread;
//! parallelism lives one level up, across independent simulations
//! ([`crate::exec`]).

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
    /// Per component, indexed like the table: whether it steps at the next
    /// cycle the engine opens. Between cycles the set flags are the awake
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
    /// set (not the due set) and the machine cannot jump while it is
    /// non-empty.
    egress: Vec<bool>,
    egress_count: usize,
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
            due: vec![false; n_cores + n_parts],
            n_awake: 0,
            credited: vec![0; n_cores],
            egress: vec![false; n_cores],
            egress_count: 0,
            req_due: NEVER,
            resp_due: NEVER,
        }
    }

    /// Books component `comp`'s wake time `wake >= next`, where `next` is
    /// the next cycle the engine can open: awake then, it is flagged due
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
}

/// The cycle from which `net` can next deliver, seen from cycle `from`:
/// its earliest head-of-line ready time clamped to `from`, [`NEVER`] when
/// it is empty. Pushes never lower it (a new flit is ready no earlier than
/// every flit already buffered), so it only needs recomputing after the
/// net was stepped.
fn net_due(net: &Crossbar<MemRequest>, from: u64) -> u64 {
    net.earliest_head_ready().map_or(NEVER, |t| t.max(from))
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
    net.step_with(now, deliver);
    *due = net_due(net, now + 1);
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
        w.due.fill(false);
        w.n_awake = 0;
        w.egress_count = 0;
        w.req_due = net_due(&self.req_net, now);
        w.resp_due = net_due(&self.resp_net, now);
        for (c, core) in self.cores.iter().enumerate() {
            w.credited[c] = now;
            w.egress[c] = core.has_egress();
            w.egress_count += usize::from(w.egress[c]);
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
        w.timeq.advance(t, |comp| w.due[comp as usize] = true);
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
            if !w.due[n_cores + p] {
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
            let (credited, due) = (&mut w.credited[..], &mut w.due[..]);
            self.xbar_steps += step_net(&mut self.resp_net, &mut w.resp_due, t, |c, resp| {
                credit_core(&mut cores[c], &mut credited[c], t);
                cores[c].receive(resp);
                due[c] = true;
            });
        }

        // 3. Due cores execute (skipped-cycle credit first, so the step
        //    observes exactly the state per-cycle stepping would). A step
        //    can enqueue egress, so the egress-pending set is refreshed.
        for (c, core) in cores.iter_mut().enumerate() {
            if !w.due[c] {
                continue;
            }
            self.core_steps += 1;
            credit_core(core, &mut w.credited[c], t);
            core.step(t);
            w.credited[c] = t + 1;
            let has = core.has_egress();
            if has != w.egress[c] {
                w.egress[c] = has;
                if has {
                    w.egress_count += 1;
                } else {
                    w.egress_count -= 1;
                }
            }
        }

        // 4. Core egress into the request network — every core with queued
        //    requests, due or not: a struct-stalled core sleeps while its
        //    queue drains at the machine's pace, and the pop that makes
        //    room for a blocked instruction wakes it.
        //    Skipped cycles are credited before the pop can clear the
        //    sleep, keeping the lazy-credit bookkeeping exact.
        if w.egress_count > 0 {
            for (c, core) in cores.iter_mut().enumerate() {
                if !w.egress[c] {
                    continue;
                }
                let mut popped = false;
                for _ in 0..self.req_net.free_slots(c).min(rate) {
                    let Some(req) = core.peek_request() else {
                        break;
                    };
                    let route = (c, req.addr.partition(n_partitions));
                    credit_core(core, &mut w.credited[c], t + 1);
                    let req = core.pop_request().expect("peeked");
                    push_flit(&mut self.req_net, &mut w.req_due, latency, route, req, t);
                    popped = true;
                }
                if popped {
                    if !core.has_egress() {
                        w.egress[c] = false;
                        w.egress_count -= 1;
                    }
                    // A pop that made room for a struct-stalled sleeper woke
                    // it: have the epilogue rebook it like the cores that
                    // stepped. A sleeper it left asleep keeps its booking.
                    w.due[c] |= core.next_event(t + 1) <= t + 1;
                }
            }
        }

        // 5. Eject requests into the ingress backlogs (arbitration order),
        //    then every backlog drain-retries into its partition. With
        //    that, the partitions touched this cycle are rebooked.
        self.xbar_steps += step_net(&mut self.req_net, &mut w.req_due, t, |p, req| {
            backlog[p].push_back(req)
        });
        w.n_awake = 0;
        for p in 0..partitions.len() {
            let fresh = !backlog[p].is_empty();
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
            if std::mem::take(&mut w.due[n_cores + p]) || fresh {
                let wake = partition_wake(&partitions[p], &staged[p], &backlog[p], t + 1);
                w.book(n_cores + p, wake, t + 1);
            }
        }

        // Rebook the cores stepped or woken this cycle.
        for (c, core) in cores.iter().enumerate() {
            if std::mem::take(&mut w.due[c]) {
                w.book(c, core.next_event(t + 1), t + 1);
            }
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
            (0..n_cores).all(|c| w.due[c] == (self.cores[c].next_event(t) <= t)),
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
                w.due[n_cores + p] == (wake <= t)
            }),
            "partition due flags diverged from the scan at cycle {t}"
        );
        debug_assert!(
            (w.req_due <= t) == (net_due(&self.req_net, t) <= t)
                && (w.resp_due <= t) == (net_due(&self.resp_net, t) <= t),
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
