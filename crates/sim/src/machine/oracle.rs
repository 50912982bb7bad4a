//! The reference oracle: the seed's naive cycle-by-cycle engine.
//!
//! Steps every component every cycle through the original `Vec`-returning
//! component APIs — no wake times, no idle skipping, no lazy crediting. It
//! exists so tests can hold the production engine (`machine/engine.rs`) to
//! it bit for bit, and it is reached only from `crates/sim/tests/`
//! (`engine_equivalence.rs`, `span_equivalence.rs`): no binary, benchmark
//! or library path selects it. [`Gpu::run`] dispatches here at the top of
//! a span and nowhere else.

use super::Gpu;

impl Gpu {
    /// Routes this machine's run spans to the reference oracle (`true`) or
    /// back to the production engine (`false`). The two are bit-for-bit
    /// equivalent; the oracle is simply slower and allocates every cycle.
    /// Because it shares no stepping code with the production engine, a
    /// divergence between the two isolates a bug to the engine.
    #[doc(hidden)]
    pub fn set_reference_engine(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// A span of the oracle. It maintains none of the production engine's
    /// derived state, so that state is stale afterwards.
    pub(super) fn run_reference(&mut self, cycles: u64) {
        self.invalidate_wake_state();
        for _ in 0..cycles {
            self.step_reference();
        }
    }

    /// One cycle: the original per-cycle algorithm with `Vec`-returning
    /// component steps.
    fn step_reference(&mut self) {
        let now = self.now;

        for (p, part) in self.partitions.iter_mut().enumerate() {
            for resp in part.step(now) {
                self.resp_backlog[p].push_back(resp);
            }
            while let Some(resp) = self.resp_backlog[p].front() {
                if !self.resp_net.can_accept(p) {
                    break;
                }
                let dest = resp.core().index();
                let resp = self.resp_backlog[p].pop_front().expect("front checked");
                self.resp_net
                    .push(p, dest, resp, now)
                    .expect("can_accept checked");
            }
        }

        for (core_idx, resp) in self.resp_net.step(now) {
            self.cores[core_idx].receive(resp);
        }

        for core in &mut self.cores {
            core.step_reference(now);
        }

        let n_partitions = self.cfg.n_partitions;
        for (ci, core) in self.cores.iter_mut().enumerate() {
            for _ in 0..self.cfg.xbar_requests_per_cycle {
                let Some(req) = core.peek_request() else {
                    break;
                };
                if !self.req_net.can_accept(ci) {
                    break;
                }
                let dest = req.addr.partition(n_partitions);
                let req = core.pop_request().expect("peeked");
                self.req_net
                    .push(ci, dest, req, now)
                    .expect("can_accept checked");
            }
        }

        for (p, req) in self.req_net.step(now) {
            self.ingress_backlog[p].push_back(req);
        }
        for (p, part) in self.partitions.iter_mut().enumerate() {
            while let Some(req) = self.ingress_backlog[p].front().copied() {
                if part.push(req).is_err() {
                    break;
                }
                self.ingress_backlog[p].pop_front();
            }
        }

        self.now += 1;
        self.stepped_cycles += 1;
        self.core_steps += self.cores.len() as u64;
        self.partition_steps += self.partitions.len() as u64;
        self.xbar_steps += 2;
    }
}
