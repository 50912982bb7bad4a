//! Crossbar interconnect between cores and memory partitions.
//!
//! One instance models each direction (request and response networks are
//! independent crossbars, as in GPGPU-Sim). Each input port owns a bounded
//! FIFO; every cycle each output port grants up to a configured number of
//! head-of-line flits, arbitrating among contending inputs round-robin
//! (a single-iteration iSLIP). A flit becomes eligible for delivery
//! `latency` cycles after it was pushed, modeling wire/router traversal.

use gpu_types::bits::{BitSet, BitWalk};
use std::collections::VecDeque;

#[derive(Debug)]
struct Flit<T> {
    dest: usize,
    ready_at: u64,
    payload: T,
}

/// A fixed-latency, input-queued crossbar carrying payloads of type `T`.
#[derive(Debug)]
pub struct Crossbar<T> {
    inputs: Vec<VecDeque<Flit<T>>>,
    n_outputs: usize,
    latency: u64,
    grants_per_output: usize,
    queue_capacity: usize,
    rr: Vec<usize>,
    /// Running count of buffered flits, so [`Crossbar::in_flight`] /
    /// [`Crossbar::is_empty`] and the engine's idle-skip check are O(1)
    /// instead of an O(n_inputs) scan.
    buffered: usize,
    /// High-water mark of `buffered` since the last
    /// [`Crossbar::take_peak_in_flight`] — one compare per push, cheap
    /// enough to track unconditionally.
    peak_buffered: usize,
    /// Inputs whose FIFO holds a flit: set in [`Crossbar::push`], cleared
    /// by the pop that empties the FIFO, so arbitration and
    /// [`Crossbar::earliest_head_ready`] visit buffered inputs only.
    non_empty: BitSet,
    /// Arbitration scratch, empty between steps: row `out` (`row_bits`
    /// indices, word-aligned) holds the inputs whose head is deliverable to
    /// `out` this cycle. An input has one head, so the rows are disjoint and
    /// no input can be granted twice in a cycle.
    candidates: BitSet,
    row_bits: usize,
    /// Arbitration scratch, empty between steps: outputs with a candidate.
    contended: BitSet,
}

impl<T> Crossbar<T> {
    /// Creates a crossbar with `n_inputs` input ports, `n_outputs` output
    /// ports, a traversal `latency` in cycles, up to `grants_per_output`
    /// deliveries per output per cycle, and `queue_capacity` flits of
    /// buffering per input port.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        n_inputs: usize,
        n_outputs: usize,
        latency: u64,
        grants_per_output: usize,
        queue_capacity: usize,
    ) -> Self {
        assert!(
            n_inputs > 0 && n_outputs > 0 && grants_per_output > 0 && queue_capacity > 0,
            "crossbar dimensions must be non-zero"
        );
        let row_bits = n_inputs.next_multiple_of(64);
        Crossbar {
            inputs: (0..n_inputs).map(|_| VecDeque::new()).collect(),
            n_outputs,
            latency,
            grants_per_output,
            queue_capacity,
            rr: vec![0; n_outputs],
            buffered: 0,
            peak_buffered: 0,
            non_empty: BitSet::new(n_inputs),
            candidates: BitSet::new(n_outputs * row_bits),
            row_bits,
            contended: BitSet::new(n_outputs),
        }
    }

    /// True when input port `input` can accept another flit.
    pub fn can_accept(&self, input: usize) -> bool {
        self.inputs[input].len() < self.queue_capacity
    }

    /// Number of flits input port `input` can still accept this cycle.
    ///
    /// Because each input FIFO is filled only by its owning component and
    /// drained only by [`Crossbar::step_with`], a snapshot taken before the
    /// cycle's push phase is an exact admission budget for that phase.
    pub fn free_slots(&self, input: usize) -> usize {
        self.queue_capacity - self.inputs[input].len()
    }

    /// Enqueues `payload` at `input` destined for `dest`, becoming
    /// deliverable at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns the payload back when the input queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `dest` is out of range.
    pub fn push(&mut self, input: usize, dest: usize, payload: T, now: u64) -> Result<(), T> {
        assert!(dest < self.n_outputs, "destination {dest} out of range");
        if !self.can_accept(input) {
            return Err(payload);
        }
        self.inputs[input].push_back(Flit {
            dest,
            ready_at: now + self.latency,
            payload,
        });
        self.non_empty.set(input);
        self.buffered += 1;
        if self.buffered > self.peak_buffered {
            self.peak_buffered = self.buffered;
        }
        Ok(())
    }

    fn pop(&mut self, input: usize) -> T {
        let flit = self.inputs[input].pop_front().expect("granted a head");
        if self.inputs[input].is_empty() {
            self.non_empty.clear(input);
        }
        self.buffered -= 1;
        flit.payload
    }

    /// Advances one cycle: each output port grants up to
    /// `grants_per_output` eligible head-of-line flits, round-robin over
    /// inputs; each input sends at most one flit per cycle, delivered
    /// through `deliver(output_port, payload)` in grant order.
    ///
    /// This is the hot-path form, and its cost follows the traffic rather
    /// than the port count: one pass over the non-empty inputs files each
    /// deliverable head under its destination, then only the outputs that
    /// drew a candidate arbitrate, in ascending order, each walking its
    /// candidates circularly from its round-robin pointer. Nothing is
    /// allocated. Grants, their order and the pointer movement are those of
    /// [`Crossbar::step`], which scans every input at every output.
    ///
    /// Returns the next delivery, found in the same pass: `None` once
    /// empty, `Some(now)` while a ready head went ungranted, else the
    /// earliest `ready_at` of the heads kept or uncovered, which clamped to
    /// `now + 1` is [`Crossbar::earliest_head_ready`]'s.
    pub fn step_with(&mut self, now: u64, mut deliver: impl FnMut(usize, T)) -> Option<u64> {
        if self.buffered == 0 {
            return None;
        }
        let n_inputs = self.inputs.len();
        let (mut ungranted, mut next) = (0usize, u64::MAX);
        let mut buffered = BitWalk::over(0..n_inputs);
        while let Some(i) = self.non_empty.next(&mut buffered) {
            let head = self.inputs[i].front().expect("non-empty input");
            if head.ready_at <= now {
                ungranted += 1;
                self.candidates.set(head.dest * self.row_bits + i);
                self.contended.set(head.dest);
            } else {
                next = next.min(head.ready_at);
            }
        }
        let mut outputs = BitWalk::over(0..self.n_outputs);
        while let Some(out) = self.contended.next(&mut outputs) {
            self.contended.clear(out);
            let row = out * self.row_bits;
            let start = self.rr[out];
            let mut grants = 0;
            // Circularly from the pointer: `start..n_inputs`, then `0..start`.
            for span in [start..n_inputs, 0..start] {
                let mut row_walk = BitWalk::over(row + span.start..row + span.end);
                while grants < self.grants_per_output {
                    let Some(i) = self.candidates.next(&mut row_walk) else {
                        break;
                    };
                    let i = i - row;
                    deliver(out, self.pop(i));
                    next = next.min(self.inputs[i].front().map_or(u64::MAX, |f| f.ready_at));
                    grants += 1;
                    ungranted -= 1;
                    // Advance the pointer past the last granted input so a
                    // persistent sender cannot starve others.
                    self.rr[out] = if i + 1 == n_inputs { 0 } else { i + 1 };
                }
            }
            self.candidates
                .zero_words(row / 64..(row + self.row_bits) / 64);
        }
        self.debug_check();
        (self.buffered > 0).then_some(if ungranted > 0 { now } else { next })
    }

    /// Debug builds hold the running count and the non-empty set to a scan
    /// of the FIFOs.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.buffered,
            self.inputs.iter().map(VecDeque::len).sum::<usize>(),
            "running flit count diverged from the scan"
        );
        debug_assert!(
            self.inputs
                .iter()
                .enumerate()
                .all(|(i, q)| self.non_empty.get(i) != q.is_empty()),
            "non-empty input set diverged from the scan"
        );
    }

    /// Reference form of [`Crossbar::step_with`]: the original per-cycle
    /// algorithm with freshly allocated scratch and a collected result
    /// vector, no early-outs, every input probed at every output. Kept for
    /// differential testing (`engine_equivalence`, the `properties`
    /// differential) and unit tests; never used on the hot path, with which
    /// it shares only the FIFO pop.
    pub fn step(&mut self, now: u64) -> Vec<(usize, T)> {
        let n_inputs = self.inputs.len();
        let mut delivered = Vec::new();
        let mut input_used = vec![false; n_inputs];
        for out in 0..self.n_outputs {
            let mut grants = 0;
            let start = self.rr[out];
            for k in 0..n_inputs {
                if grants == self.grants_per_output {
                    break;
                }
                let i = (start + k) % n_inputs;
                if input_used[i] {
                    continue;
                }
                let eligible = matches!(
                    self.inputs[i].front(),
                    Some(f) if f.dest == out && f.ready_at <= now
                );
                if eligible {
                    delivered.push((out, self.pop(i)));
                    input_used[i] = true;
                    grants += 1;
                    self.rr[out] = (i + 1) % n_inputs;
                }
            }
        }
        delivered
    }

    /// The earliest head-of-line `ready_at`, or `None` when the crossbar
    /// is empty — its "next event at" contract for the event engine:
    /// nothing can be delivered before the returned cycle. Head-of-line
    /// flits suffice because only they can be granted and latency is
    /// constant, so each FIFO's head carries its queue's minimum.
    pub fn earliest_head_ready(&self) -> Option<u64> {
        if self.buffered == 0 {
            return None;
        }
        let mut next = u64::MAX;
        let mut buffered = BitWalk::over(0..self.inputs.len());
        while let Some(i) = self.non_empty.next(&mut buffered) {
            let head = self.inputs[i].front().expect("non-empty input");
            next = next.min(head.ready_at);
        }
        Some(next)
    }

    /// Total flits currently buffered (O(1): a running count).
    pub fn in_flight(&self) -> usize {
        self.debug_check();
        self.buffered
    }

    /// True when no flits are buffered (O(1): a running count).
    pub fn is_empty(&self) -> bool {
        self.debug_check();
        self.buffered == 0
    }

    /// Returns the high-water mark of buffered flits since the last call
    /// and re-arms it at the current depth — the metrics layer reads this
    /// once per sampling window as a queue-depth sample.
    pub fn take_peak_in_flight(&mut self) -> usize {
        std::mem::replace(&mut self.peak_buffered, self.buffered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 3, 1, 4);
        x.push(0, 1, 42, 10).unwrap();
        assert!(x.step(10).is_empty());
        assert!(x.step(12).is_empty());
        assert_eq!(x.step(13), vec![(1, 42)]);
        assert!(x.is_empty());
    }

    #[test]
    fn zero_latency_delivers_same_cycle() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0, 1, 4);
        x.push(0, 0, 7, 5).unwrap();
        assert_eq!(x.step(5), vec![(0, 7)]);
    }

    #[test]
    fn peak_in_flight_tracks_high_water_mark() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 3, 1, 4);
        x.push(0, 0, 1, 0).unwrap();
        x.push(1, 1, 2, 0).unwrap();
        x.step(3); // drains both
        assert!(x.is_empty());
        assert_eq!(x.take_peak_in_flight(), 2);
        // Re-armed at the current (empty) depth.
        assert_eq!(x.take_peak_in_flight(), 0);
    }

    #[test]
    fn backpressure_on_full_queue() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0, 1, 2);
        x.push(0, 0, 1, 0).unwrap();
        x.push(0, 0, 2, 0).unwrap();
        assert!(!x.can_accept(0));
        assert_eq!(x.push(0, 0, 3, 0), Err(3));
    }

    #[test]
    fn free_slots_counts_down_to_zero() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 1, 0, 1, 3);
        assert_eq!(x.free_slots(0), 3);
        x.push(0, 0, 1, 0).unwrap();
        x.push(0, 0, 2, 0).unwrap();
        assert_eq!(x.free_slots(0), 1);
        assert_eq!(x.free_slots(1), 3, "ports are independent");
        x.push(0, 0, 3, 0).unwrap();
        assert_eq!(x.free_slots(0), 0);
        assert!(!x.can_accept(0));
        x.step(0);
        assert_eq!(x.free_slots(0), 1, "a grant frees exactly one slot");
    }

    #[test]
    fn output_rate_limits_throughput() {
        let mut x: Crossbar<u32> = Crossbar::new(4, 1, 0, 1, 4);
        for i in 0..4 {
            x.push(i, 0, i as u32, 0).unwrap();
        }
        // One grant per cycle at the single output.
        for cycle in 0..4u64 {
            assert_eq!(x.step(cycle).len(), 1);
        }
        assert!(x.is_empty());
    }

    #[test]
    fn round_robin_is_fair_under_contention() {
        let mut x: Crossbar<usize> = Crossbar::new(3, 1, 0, 1, 8);
        for i in 0..3 {
            for _ in 0..4 {
                x.push(i, 0, i, 0).unwrap();
            }
        }
        let mut served = [0usize; 3];
        for cycle in 0..12u64 {
            for (_, src) in x.step(cycle) {
                served[src] += 1;
            }
        }
        assert_eq!(served, [4, 4, 4]);
    }

    #[test]
    fn head_of_line_blocking() {
        // Input 0's head targets output 0 (busy via rate), the flit behind it
        // targets output 1 but cannot overtake.
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 0, 1, 4);
        x.push(0, 0, 10, 0).unwrap();
        x.push(0, 1, 11, 0).unwrap();
        x.push(1, 0, 20, 0).unwrap();
        let first = x.step(0);
        // Output 0 grants one of the two contenders; output 1 gets nothing
        // if input 0's head went to output 0, or gets nothing because input 0
        // already sent — either way flit 11 is not delivered in cycle 0
        // unless input 0 lost arbitration at output 0.
        let got_11 = first.iter().any(|&(_, p)| p == 11);
        assert!(!got_11, "second flit of input 0 must not overtake its head");
    }

    #[test]
    fn distinct_outputs_deliver_in_parallel() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 0, 1, 4);
        x.push(0, 0, 1, 0).unwrap();
        x.push(1, 1, 2, 0).unwrap();
        let mut got = x.step(0);
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn one_flit_per_input_per_cycle() {
        // Same input has heads for both outputs across cycles; even with two
        // free outputs it can send only one flit per cycle.
        let mut x: Crossbar<u32> = Crossbar::new(1, 2, 0, 2, 4);
        x.push(0, 0, 1, 0).unwrap();
        x.push(0, 1, 2, 0).unwrap();
        assert_eq!(x.step(0).len(), 1);
        assert_eq!(x.step(1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 0, 1, 1);
        let _ = x.push(0, 5, 0, 0);
    }

    #[test]
    fn running_count_tracks_pushes_and_grants() {
        let mut x: Crossbar<u32> = Crossbar::new(3, 2, 1, 1, 4);
        assert!(x.is_empty());
        x.push(0, 0, 1, 0).unwrap();
        x.push(1, 1, 2, 0).unwrap();
        x.push(2, 0, 3, 0).unwrap();
        assert_eq!(x.in_flight(), 3);
        let delivered = x.step(1).len();
        assert_eq!(x.in_flight(), 3 - delivered);
        while !x.is_empty() {
            x.step(2);
        }
        assert_eq!(x.in_flight(), 0);
    }

    #[test]
    fn earliest_head_ready_reports_traversal_horizon() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 2, 5, 1, 4);
        assert_eq!(x.earliest_head_ready(), None, "empty crossbar");
        x.push(0, 1, 9, 10).unwrap();
        assert_eq!(x.earliest_head_ready(), Some(15), "in traversal until 15");
        x.step_with(14, |_, _| panic!("nothing is deliverable before 15"));
        let mut got = Vec::new();
        x.step_with(15, |out, p| got.push((out, p)));
        assert_eq!(got, [(1, 9)], "deliverable at the reported cycle");
        assert_eq!(x.earliest_head_ready(), None);
    }

    #[test]
    fn step_with_reports_a_ready_head_left_ungranted() {
        // Two ready heads contend for one output that grants once a cycle.
        let mut x: Crossbar<u32> = Crossbar::new(2, 1, 2, 1, 4);
        x.push(0, 0, 1, 0).unwrap();
        x.push(1, 0, 2, 0).unwrap();
        assert_eq!(x.step_with(2, |_, _| {}), Some(2), "the loser is ready now");
        assert_eq!(x.step_with(3, |_, _| {}), None, "the last grant empties it");
        assert_eq!(x.step_with(4, |_, _| {}), None, "an empty step");
    }

    #[test]
    fn step_with_reports_the_head_a_grant_uncovers() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 1, 2, 1, 4);
        x.push(0, 0, 1, 0).unwrap();
        x.push(0, 0, 2, 3).unwrap();
        assert_eq!(x.step_with(1, |_, _| {}), Some(2), "nothing ready yet");
        assert_eq!(
            x.step_with(2, |_, _| {}),
            Some(5),
            "the next head's ready_at"
        );
        assert_eq!(x.step_with(5, |_, _| {}), None);
    }
}
