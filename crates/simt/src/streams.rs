//! Simple instruction streams for tests and micro-experiments.
//!
//! The paper's 26 application models live in `gpu-workloads`; these streams
//! exercise the core machinery with fully predictable behaviour.

use crate::inst::{Inst, InstStream, LineBuf, Op};
use gpu_types::Address;

/// Replays a fixed instruction list once.
#[derive(Debug, Clone)]
pub struct Scripted {
    insts: std::collections::VecDeque<Inst>,
}

impl Scripted {
    /// Creates a stream that yields `insts` in order, then ends.
    pub fn new(insts: Vec<Inst>) -> Self {
        Scripted {
            insts: insts.into(),
        }
    }
}

impl InstStream for Scripted {
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op> {
        Some(self.insts.pop_front()?.decode(lines))
    }
}

/// An endless strided load stream: `compute` ALU instructions, then one
/// fully-coalesced load, advancing by `stride` bytes each iteration.
#[derive(Debug, Clone)]
pub struct Streaming {
    next_addr: u64,
    stride: u64,
    compute: u32,
    phase: u32,
}

impl Streaming {
    /// Creates a stream starting at `base`, striding by `stride` bytes, with
    /// `compute` ALU instructions between loads.
    pub fn new(base: u64, stride: u64, compute: u32) -> Self {
        Streaming {
            next_addr: base,
            stride,
            compute,
            phase: 0,
        }
    }
}

impl InstStream for Streaming {
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op> {
        if self.phase < self.compute {
            self.phase += 1;
            return Some(Op::Alu { cycles: 1 });
        }
        self.phase = 0;
        let a = self.next_addr;
        self.next_addr = self.next_addr.wrapping_add(self.stride);
        lines.clear();
        lines.coalesce(Address::new(a));
        Some(Op::Load)
    }
}

/// An endless loop over a fixed working set of lines — a perfectly
/// cacheable stream once the set fits in cache.
#[derive(Debug, Clone)]
pub struct LoopOverSet {
    lines: Vec<u64>,
    idx: usize,
}

impl LoopOverSet {
    /// Loops over `n_lines` consecutive lines starting at `base`.
    pub fn new(base: u64, n_lines: usize) -> Self {
        assert!(n_lines > 0, "working set must be non-empty");
        LoopOverSet {
            lines: (0..n_lines as u64)
                .map(|i| base + i * gpu_types::LINE_SIZE)
                .collect(),
            idx: 0,
        }
    }
}

impl InstStream for LoopOverSet {
    fn decode(&mut self, lines: &mut LineBuf<'_>) -> Option<Op> {
        let a = self.lines[self.idx];
        self.idx = (self.idx + 1) % self.lines.len();
        lines.clear();
        lines.coalesce(Address::new(a));
        Some(Op::Load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_ends() {
        let mut s = Scripted::new(vec![Inst::alu1()]);
        assert!(s.next_inst().is_some());
        assert!(s.next_inst().is_none());
    }

    #[test]
    fn streaming_alternates_compute_and_loads() {
        let mut s = Streaming::new(0, 128, 2);
        assert_eq!(s.next_inst(), Some(Inst::alu1()));
        assert_eq!(s.next_inst(), Some(Inst::alu1()));
        assert_eq!(s.next_inst(), Some(Inst::load1(0)));
        assert_eq!(s.next_inst(), Some(Inst::alu1()));
    }

    #[test]
    fn streaming_strides() {
        let mut s = Streaming::new(0, 256, 0);
        assert_eq!(s.next_inst(), Some(Inst::load1(0)));
        assert_eq!(s.next_inst(), Some(Inst::load1(256)));
    }

    #[test]
    fn loop_over_set_wraps() {
        let mut s = LoopOverSet::new(0, 2);
        assert_eq!(s.next_inst(), Some(Inst::load1(0)));
        assert_eq!(s.next_inst(), Some(Inst::load1(128)));
        assert_eq!(s.next_inst(), Some(Inst::load1(0)));
    }
}
