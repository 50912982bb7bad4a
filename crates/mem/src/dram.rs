//! GDDR5 DRAM channel timing model.
//!
//! Models banks with row buffers, bank groups, and the command timing
//! constraints of Table I (Hynix GDDR5): `tCL`, `tRP`, `tRCD`, `tRAS`,
//! `tCCD` (long within a bank group, short across groups) and `tRRD`, plus
//! data-bus occupancy per burst. The controller ([`crate::mc`]) picks which
//! queued request to serve; this module answers *when* that service
//! completes and tracks the resulting bank/bus state.
//!
//! Address mapping within a partition is row-contiguous: consecutive
//! interleave chunks fill a row before moving to the next bank, so streaming
//! access patterns naturally enjoy high row-buffer locality while irregular
//! patterns pay frequent ACTIVATE/PRECHARGE pairs — exactly the contention
//! behaviour the paper's §III analysis relies on.

use gpu_types::addr::INTERLEAVE_BYTES;
use gpu_types::{Address, DramConfig, PagePolicy};

/// Completed-service summary returned by [`DramChannel::service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// Cycle at which the last data beat has transferred.
    pub done_at: u64,
    /// True when the access hit an open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next command. Set to the last
    /// column command plus `tCCD_L`, so consecutive row hits pipeline their
    /// column commands while the previous burst is still on the bus —
    /// without this, per-bank bandwidth would be capped at
    /// `LINE_SIZE / (tCL + burst)` and FR-FCFS streams could never reach
    /// the peak the paper normalizes BW against.
    busy_until: u64,
    /// Cycle of the most recent ACTIVATE (for tRAS).
    activated_at: u64,
}

/// One GDDR5 channel: a set of banks behind a shared command/data bus.
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    n_partitions: usize,
    /// Earliest cycle the shared data bus is free.
    bus_free_at: u64,
    /// Earliest cycle the next ACTIVATE may issue on any bank (tRRD window).
    next_act_ok: u64,
    /// Cycle of the most recent column command per bank group (for tCCD);
    /// `None` until the group has seen one.
    last_col_at: Vec<Option<u64>>,
}

impl DramChannel {
    /// Creates a channel. `n_partitions` is needed to strip the partition
    /// interleaving out of global addresses.
    pub fn new(cfg: DramConfig, n_partitions: usize) -> Self {
        assert!(n_partitions > 0, "partition count must be non-zero");
        let banks = vec![
            Bank {
                open_row: None,
                busy_until: 0,
                activated_at: 0
            };
            cfg.n_banks
        ];
        let groups = cfg.n_bank_groups;
        DramChannel {
            cfg,
            banks,
            n_partitions,
            bus_free_at: 0,
            next_act_ok: 0,
            last_col_at: vec![None; groups],
        }
    }

    fn local_chunk(&self, addr: Address) -> u64 {
        (addr.raw() / INTERLEAVE_BYTES) / self.n_partitions as u64
    }

    fn chunks_per_row(&self) -> u64 {
        self.cfg.row_bytes / INTERLEAVE_BYTES
    }

    /// The bank index a global address maps to.
    pub fn bank_of(&self, addr: Address) -> usize {
        ((self.local_chunk(addr) / self.chunks_per_row()) % self.cfg.n_banks as u64) as usize
    }

    /// The row index (within its bank) a global address maps to.
    pub fn row_of(&self, addr: Address) -> u64 {
        self.local_chunk(addr) / self.chunks_per_row() / self.cfg.n_banks as u64
    }

    fn group_of(&self, bank: usize) -> usize {
        bank % self.cfg.n_bank_groups
    }

    /// True when `addr`'s bank currently has `addr`'s row open — the
    /// "first-ready" predicate of FR-FCFS.
    pub fn is_row_hit(&self, addr: Address) -> bool {
        self.open_row(self.bank_of(addr)) == Some(self.row_of(addr))
    }

    /// True when `addr`'s bank can accept a request at `now`.
    pub fn bank_free(&self, addr: Address, now: u64) -> bool {
        self.bank_free_idx(self.bank_of(addr), now)
    }

    /// The row `bank` holds open, if any (the controller caches bank and
    /// row per queued request, so its FR-FCFS pick is free of divisions).
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        self.banks[bank].open_row
    }

    /// [`Self::bank_free`] with a precomputed bank index.
    pub fn bank_free_idx(&self, bank: usize, now: u64) -> bool {
        self.banks[bank].busy_until <= now
    }

    /// The cycle at which `bank` finishes its current operation (0 when it
    /// has never been used): `bank_free_idx(bank, t)` holds exactly for
    /// `t >= bank_busy_until(bank)`. Bank state mutates only on
    /// [`Self::service_at`], so between controller issues this horizon is
    /// exact — the event engine builds the controller's next-issue time
    /// from it.
    pub fn bank_busy_until(&self, bank: usize) -> u64 {
        self.banks[bank].busy_until
    }

    /// Services one line-sized access starting no earlier than `now`,
    /// updating bank and bus state, and returns its completion time.
    ///
    /// The caller (the memory controller) is responsible for only invoking
    /// this when [`Self::bank_free`] holds.
    pub fn service(&mut self, addr: Address, now: u64) -> Service {
        self.service_at(self.bank_of(addr), self.row_of(addr), now)
    }

    /// [`Self::service`] with a precomputed bank/row.
    pub fn service_at(&mut self, bank_idx: usize, row: u64, now: u64) -> Service {
        let group = self.group_of(bank_idx);
        let c = &self.cfg;
        let bank = self.banks[bank_idx];
        let start = now.max(bank.busy_until);

        let (col_ready, row_hit) = match bank.open_row {
            Some(open) if open == row => (start, true),
            Some(_) => {
                // Conflict: PRECHARGE (respecting tRAS) then ACTIVATE
                // (respecting tRRD) then tRCD before the column command.
                let pre_at = start.max(bank.activated_at + c.t_ras as u64);
                let act_at = (pre_at + c.t_rp as u64).max(self.next_act_ok);
                self.next_act_ok = act_at + c.t_rrd as u64;
                self.banks[bank_idx].activated_at = act_at;
                (act_at + c.t_rcd as u64, false)
            }
            None => {
                // Closed bank: ACTIVATE then tRCD.
                let act_at = start.max(self.next_act_ok);
                self.next_act_ok = act_at + c.t_rrd as u64;
                self.banks[bank_idx].activated_at = act_at;
                (act_at + c.t_rcd as u64, false)
            }
        };

        // Column command spacing within/across bank groups, and the data bus
        // must be free when this access's burst begins.
        let ccd = self
            .last_col_at
            .iter()
            .enumerate()
            .filter_map(|(g, &t)| {
                let gap = if g == group { c.t_ccd_l } else { c.t_ccd_s };
                t.map(|t| t + gap as u64)
            })
            .max()
            .unwrap_or(0);
        let col_at = col_ready
            .max(ccd)
            .max(self.bus_free_at.saturating_sub(c.t_cl as u64));
        let data_start = (col_at + c.t_cl as u64).max(self.bus_free_at);
        let done_at = data_start + c.burst_cycles as u64;

        self.last_col_at[group] = Some(col_at);
        self.bus_free_at = done_at;
        match c.page_policy {
            PagePolicy::Open => {
                self.banks[bank_idx].open_row = Some(row);
                self.banks[bank_idx].busy_until = col_at + c.t_ccd_l as u64;
            }
            PagePolicy::Closed => {
                // Auto-precharge: the row closes behind the access and the
                // bank may not activate again until the precharge finishes.
                self.banks[bank_idx].open_row = None;
                self.banks[bank_idx].busy_until =
                    (col_at + c.t_ccd_l as u64).max(col_at + c.t_rp as u64);
            }
        }
        Service { done_at, row_hit }
    }

    /// Number of banks in the channel.
    pub fn n_banks(&self) -> usize {
        self.cfg.n_banks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_types::LINE_SIZE;

    fn cfg() -> DramConfig {
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
            page_policy: PagePolicy::Open,
        }
    }

    #[test]
    fn closed_page_never_row_hits() {
        let mut closed = cfg();
        closed.page_policy = PagePolicy::Closed;
        let mut ch = DramChannel::new(closed, 1);
        let a = addr_in(&ch, 0, 0, 0);
        let b = addr_in(&ch, 0, 0, 1);
        let s1 = ch.service(a, 0);
        assert!(!s1.row_hit);
        assert!(!ch.is_row_hit(b), "row auto-precharged");
        let s2 = ch.service(b, s1.done_at);
        assert!(!s2.row_hit, "closed-page policy forfeits row hits");
    }

    #[test]
    fn closed_page_streams_slower_than_open() {
        let run = |policy: PagePolicy| {
            let mut c = cfg();
            c.page_policy = policy;
            let mut ch = DramChannel::new(c, 1);
            let mut issue_at = 0u64;
            let mut done = 0u64;
            for i in 0..32 {
                let a = addr_in(&ch, 0, 0, i % 8);
                while !ch.bank_free(a, issue_at) {
                    issue_at += 1;
                }
                done = ch.service(a, issue_at).done_at;
            }
            done
        };
        assert!(
            run(PagePolicy::Closed) > run(PagePolicy::Open),
            "a single-bank stream must be slower under closed page"
        );
    }

    /// Address of the `i`-th line within `bank`/`row` for a 1-partition
    /// channel (local chunk == global chunk).
    fn addr_in(ch: &DramChannel, bank: usize, row: u64, line: u64) -> Address {
        let chunks_per_row = ch.chunks_per_row();
        let chunk = (row * ch.cfg.n_banks as u64 + bank as u64) * chunks_per_row + line / 2;
        Address::new(chunk * INTERLEAVE_BYTES + (line % 2) * LINE_SIZE)
    }

    #[test]
    fn mapping_is_row_contiguous() {
        let ch = DramChannel::new(cfg(), 1);
        // 1024-byte rows = 4 chunks = 8 lines per row.
        let a0 = addr_in(&ch, 0, 0, 0);
        let a7 = addr_in(&ch, 0, 0, 7);
        assert_eq!(ch.bank_of(a0), ch.bank_of(a7));
        assert_eq!(ch.row_of(a0), ch.row_of(a7));
        // The next row index moves to the next bank.
        let b = Address::new(a7.raw() + LINE_SIZE);
        assert_eq!(ch.bank_of(b), 1);
    }

    #[test]
    fn first_access_is_a_row_miss_second_a_hit() {
        let mut ch = DramChannel::new(cfg(), 1);
        let a = addr_in(&ch, 0, 0, 0);
        let b = addr_in(&ch, 0, 0, 1);
        let s1 = ch.service(a, 0);
        assert!(!s1.row_hit);
        // tRCD + tCL + burst = 12 + 12 + 4 = 28 from ACTIVATE at 0.
        assert_eq!(s1.done_at, 28);
        let s2 = ch.service(b, s1.done_at);
        assert!(s2.row_hit);
        assert!(
            s2.done_at < s1.done_at + 28,
            "row hit must be faster than a miss"
        );
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut ch = DramChannel::new(cfg(), 1);
        let a = addr_in(&ch, 0, 0, 0);
        let conflict = addr_in(&ch, 0, 1, 0); // same bank, different row
        let s1 = ch.service(a, 0);
        let s2 = ch.service(conflict, s1.done_at);
        assert!(!s2.row_hit);
        // PRECHARGE waits for tRAS (28) after the ACTIVATE at 0, then
        // tRP + tRCD + tCL + burst.
        assert!(s2.done_at >= 28 + 12 + 12 + 12 + 4);
    }

    #[test]
    fn different_banks_overlap() {
        let mut ch = DramChannel::new(cfg(), 1);
        let a = addr_in(&ch, 0, 0, 0);
        let b = addr_in(&ch, 1, 0, 0);
        let s1 = ch.service(a, 0);
        let s2 = ch.service(b, 0);
        // Bank 1's activate only waits tRRD, so its data arrives well before
        // two serialized misses would (2 x 28).
        assert!(s2.done_at < s1.done_at + 28);
        assert!(
            s2.done_at > s1.done_at,
            "shared data bus still serializes bursts"
        );
    }

    #[test]
    fn data_bus_serializes_row_hits() {
        let mut ch = DramChannel::new(cfg(), 1);
        // Open two rows in two banks.
        let a = addr_in(&ch, 0, 0, 0);
        let b = addr_in(&ch, 2, 0, 0); // different bank group than bank 0
        ch.service(a, 0);
        ch.service(b, 0);
        let t = 100;
        let h1 = ch.service(addr_in(&ch, 0, 0, 1), t);
        let h2 = ch.service(addr_in(&ch, 2, 0, 1), t);
        assert!(h1.row_hit && h2.row_hit);
        // Bursts may not overlap on the shared bus.
        assert!(h2.done_at >= h1.done_at + cfg().burst_cycles as u64);
    }

    #[test]
    fn back_to_back_row_hits_reach_peak_bandwidth() {
        // Issue each access as soon as the bank can take another command
        // (as the FR-FCFS controller does); after the pipeline fills, each
        // row hit adds exactly one burst of bus time.
        let mut ch = DramChannel::new(cfg(), 1);
        let mut issue_at = 0;
        let mut prev_done = 0;
        for i in 0..8 {
            let a = addr_in(&ch, 0, 0, i);
            while !ch.bank_free(a, issue_at) {
                issue_at += 1;
            }
            let s = ch.service(a, issue_at);
            if i >= 2 {
                assert!(s.row_hit, "line {i} should hit");
                assert_eq!(
                    s.done_at,
                    prev_done + cfg().burst_cycles as u64,
                    "steady-state hits must stream at peak"
                );
            }
            prev_done = s.done_at;
        }
    }

    #[test]
    fn partition_interleaving_strips_correctly() {
        // With 4 partitions, global chunks 0,4,8,... belong to partition 0
        // and form its local chunks 0,1,2,...
        let ch = DramChannel::new(cfg(), 4);
        let a = Address::new(0);
        let b = Address::new(4 * INTERLEAVE_BYTES);
        assert_eq!(ch.local_chunk(a), 0);
        assert_eq!(ch.local_chunk(b), 1);
        assert_eq!(ch.bank_of(a), ch.bank_of(b), "first row stays in bank 0");
    }

    #[test]
    fn bank_free_tracks_busy_until() {
        let mut ch = DramChannel::new(cfg(), 1);
        let a = addr_in(&ch, 0, 0, 0);
        let s = ch.service(a, 0);
        assert!(!ch.bank_free(a, 0), "bank is busy right after issue");
        assert!(
            ch.bank_free(a, s.done_at),
            "bank can take a command once data completed"
        );
    }

    #[test]
    fn is_row_hit_reflects_open_row() {
        let mut ch = DramChannel::new(cfg(), 1);
        let a = addr_in(&ch, 0, 0, 0);
        assert!(!ch.is_row_hit(a));
        ch.service(a, 0);
        assert!(ch.is_row_hit(a));
        assert!(!ch.is_row_hit(addr_in(&ch, 0, 1, 0)));
    }
}
