//! Property-based tests over the memory-system substrate.
//!
//! These check conservation and ordering invariants that must hold for *any*
//! request stream — the cycle-level simulator on top silently depends on all
//! of them.
//!
//! Cases are generated with the in-repo [`SplitMix64`] generator (fixed
//! seeds, so failures reproduce exactly) — the build must work fully
//! offline.

use gpu_mem::cache::{Cache, Lookup};
use gpu_mem::dram::DramChannel;
use gpu_mem::mc::{McCounters, MemoryController};
use gpu_mem::req::{AccessKind, MemRequest, ReqId};
use gpu_mem::xbar::Crossbar;
use gpu_types::{Address, AppId, CacheConfig, CoreId, DramConfig, SplitMix64, LINE_SIZE};
use std::collections::{HashSet, VecDeque};

const CASES: usize = 128;

fn cache_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2048,
        associativity: 4,
        mshr_entries: 8,
        mshr_merge: 4,
        hit_latency: 1,
    }
}

fn dram_cfg() -> DramConfig {
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
    }
}

fn arb_vec(rng: &mut SplitMix64, bound: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let len = min_len + rng.next_below(max_len - min_len);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Every load either hits, misses (fresh or merged) or stalls, and the
/// number of responses eventually released equals the number of
/// non-stalled misses; hits never have outstanding state.
#[test]
fn cache_conserves_requests() {
    let mut rng = SplitMix64::new(0x3E3_0001);
    for _ in 0..CASES {
        let lines = arb_vec(&mut rng, 64, 1, 200);
        let mut cache = Cache::new(&cache_cfg(), 1);
        let app = AppId::new(0);
        let mut outstanding: Vec<u64> = Vec::new(); // distinct miss lines
        let mut expected_releases = 0usize;
        let mut released = 0usize;
        let mut hits = 0usize;
        let mut fresh = 0usize;
        let mut merged = 0usize;
        for (i, &l) in lines.iter().enumerate() {
            let line = Address::new(l * LINE_SIZE);
            match cache.access_load(app, line, ReqId(i as u64)) {
                Lookup::Hit => hits += 1,
                Lookup::MissToLower => {
                    outstanding.push(l);
                    fresh += 1;
                    expected_releases += 1;
                }
                Lookup::MissMerged => {
                    merged += 1;
                    expected_releases += 1;
                }
                Lookup::Stall => {
                    // Drain one outstanding line to make room, then retry
                    // is legal; here we simply drop the access (a stall is
                    // not an access).
                    if let Some(f) = outstanding.first().copied() {
                        released += cache.fill(Address::new(f * LINE_SIZE)).len();
                        outstanding.remove(0);
                    }
                }
            }
        }
        for l in outstanding {
            released += cache.fill(Address::new(l * LINE_SIZE)).len();
        }
        assert_eq!(released, expected_releases);
        let k = cache.counters(app);
        assert_eq!(k.accesses as usize, hits + expected_releases);
        assert_eq!(
            k.misses as usize, fresh,
            "only fresh misses fetch downstream"
        );
        assert_eq!(k.merged as usize, merged);
        assert!(cache.outstanding_misses() == 0);
    }
}

/// After any fill sequence, the number of distinct resident lines per set
/// never exceeds the associativity (probed indirectly: filling `assoc`
/// fresh lines into one set must evict something).
#[test]
fn cache_respects_capacity() {
    let mut rng = SplitMix64::new(0x3E3_0002);
    for _ in 0..CASES {
        let seed_lines = arb_vec(&mut rng, 256, 1, 100);
        let cfg = cache_cfg();
        let n_sets = cfg.n_sets() as u64;
        let mut cache = Cache::new(&cfg, 1);
        for (i, &l) in seed_lines.iter().enumerate() {
            let line = Address::new(l * LINE_SIZE);
            if cache.access_load(AppId::new(0), line, ReqId(i as u64)) == Lookup::MissToLower {
                cache.fill(line);
            }
        }
        // Count resident lines of set 0 among all possible tags we used.
        let resident = (0u64..256)
            .filter(|l| l % n_sets == 0)
            .filter(|&l| cache.probe(Address::new(l * LINE_SIZE)))
            .count();
        assert!(
            resident <= cfg.associativity,
            "set 0 holds {} lines > associativity {}",
            resident,
            cfg.associativity
        );
    }
}

/// The crossbar neither drops nor duplicates payloads, and every payload
/// arrives at its destination no earlier than `latency` cycles after
/// injection.
#[test]
fn crossbar_conserves_payloads() {
    let mut rng = SplitMix64::new(0x3E3_0003);
    for _ in 0..CASES {
        let len = 1 + rng.next_below(99) as usize;
        let flits: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.next_below(4) as usize, rng.next_below(3) as usize))
            .collect();
        let latency = rng.next_below(8);
        let mut x: Crossbar<usize> = Crossbar::new(4, 3, latency, 1, 4);
        let mut sent: Vec<(usize, u64)> = Vec::new(); // (payload, sent_at)
        let mut received: Vec<(usize, usize, u64)> = Vec::new(); // (payload, port, at)
        let mut pending: Vec<(usize, usize)> = flits.clone();
        let mut now = 0u64;
        let mut payload_counter = 0usize;
        while !pending.is_empty() || x.in_flight() > 0 {
            // Try to inject the next pending flit.
            if let Some(&(input, dest)) = pending.first() {
                if x.push(input, dest, payload_counter, now).is_ok() {
                    sent.push((payload_counter, now));
                    payload_counter += 1;
                    pending.remove(0);
                }
            }
            for (port, p) in x.step(now) {
                received.push((p, port, now));
            }
            now += 1;
            assert!(now < 10_000, "crossbar failed to drain");
        }
        assert_eq!(received.len(), sent.len());
        let ids: HashSet<usize> = received.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(ids.len(), sent.len(), "duplicated payloads");
        for &(p, port, at) in &received {
            let (_, sent_at) = sent[p];
            assert!(at >= sent_at + latency, "payload {} beat the latency", p);
            assert_eq!(port, flits[p].1, "payload {} misrouted", p);
        }
    }
}

/// The O(active) arbitration of `step_with` is the scan of `step`: over
/// random traffic — sparse, saturated and hot-spotted, at geometries either
/// side of the bitsets' 64-bit word boundaries — both forms deliver the same
/// `(output, payload)` sequence every cycle. Along the way each input's
/// FIFO order is preserved, pushed = delivered + buffered,
/// `earliest_head_ready` equals a scan of the modelled heads, and the next
/// delivery `step_with` returns is that scan's after the step: `None`
/// exactly when empty, otherwise the same cycle once clamped to `now + 1`.
#[test]
fn crossbar_step_with_matches_step() {
    use std::collections::VecDeque;
    let mut rng = SplitMix64::new(0x3E3_0006);
    for (n_in, n_out) in [(4, 2), (80, 16), (16, 80), (130, 5)] {
        for grants in 1..=3 {
            for (latency, capacity) in [(0, 1), (0, 8), (4, 1), (4, 8)] {
                let case = format!("{n_in}x{n_out} grants {grants} lat {latency} cap {capacity}");
                let mut fast: Crossbar<(usize, u64)> =
                    Crossbar::new(n_in, n_out, latency, grants, capacity);
                let mut oracle: Crossbar<(usize, u64)> =
                    Crossbar::new(n_in, n_out, latency, grants, capacity);
                // Per input: (ready_at, sequence number) of every buffered flit.
                let mut model: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); n_in];
                let mut next_seq = vec![0u64; n_in];
                let (mut pushed, mut delivered) = (0usize, 0usize);
                for now in 0..160u64 {
                    // Each cycle is idle, a trickle, or an offer as wide as the inputs.
                    let offered = match rng.next_below(3) {
                        0 => 0,
                        1 => 1 + rng.next_below(3) as usize,
                        _ => n_in,
                    };
                    let hot_outputs = 1 + rng.next_below(n_out as u64);
                    for _ in 0..offered {
                        let input = rng.next_below(n_in as u64) as usize;
                        let dest = rng.next_below(hot_outputs) as usize;
                        let payload = (input, next_seq[input]);
                        let accepted = fast.push(input, dest, payload, now);
                        assert_eq!(accepted, oracle.push(input, dest, payload, now), "{case}");
                        if accepted.is_ok() {
                            model[input].push_back((now + latency, next_seq[input]));
                            next_seq[input] += 1;
                            pushed += 1;
                        }
                    }
                    let heads = model.iter().filter_map(|q| q.front().map(|f| f.0)).min();
                    assert_eq!(fast.earliest_head_ready(), heads, "{case} cycle {now}");
                    let mut got = Vec::new();
                    let next = fast.step_with(now, |out, p| got.push((out, p)));
                    assert_eq!(got, oracle.step(now), "{case} cycle {now}");
                    let clamp = |t: Option<u64>| t.map(|t| t.max(now + 1));
                    assert_eq!(
                        clamp(next),
                        clamp(fast.earliest_head_ready()),
                        "{case} cycle {now}"
                    );
                    for &(_, (input, seq)) in &got {
                        let (ready_at, head) = model[input].pop_front().expect("delivered");
                        assert_eq!(seq, head, "{case}: input {input} reordered");
                        assert!(ready_at <= now, "{case}: flit beat the latency");
                    }
                    delivered += got.len();
                    assert_eq!(pushed, delivered + fast.in_flight(), "{case} cycle {now}");
                    assert_eq!(fast.in_flight(), oracle.in_flight(), "{case} cycle {now}");
                }
                assert!(delivered > 0, "{case}: no traffic crossed");
            }
        }
    }
}

/// DRAM service times move forward in issue order — the premise of the
/// controller's completions FIFO: a channel books its one data bus in
/// order, so whatever the page policy, burst length, bank, row and issue
/// instant, each access issued to a free bank completes strictly after the
/// one issued before it (and after its own issue).
#[test]
fn dram_completions_progress() {
    let mut rng = SplitMix64::new(0x3E3_0004);
    for page_policy in [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed] {
        for case in 0..CASES {
            let cfg = DramConfig {
                n_banks: [8, 16][case % 2],
                burst_cycles: 1 + rng.next_below(8) as u32,
                page_policy,
                ..dram_cfg()
            };
            let mut ch = DramChannel::new(cfg.clone(), 1);
            let (mut now, mut prev_done) = (0u64, 0u64);
            for _ in 0..1 + rng.next_below(200) {
                // Irregular gaps: back to back, short, or a long idle.
                now += [0, 1 + rng.next_below(8), rng.next_below(200)][rng.next_below(3) as usize];
                let bank = rng.next_below(cfg.n_banks as u64) as usize;
                let row = rng.next_below(4);
                let at = now.max(ch.bank_busy_until(bank));
                let done = ch.service_at(bank, row, at).done_at;
                assert!(
                    done > prev_done && done > at,
                    "{page_policy:?} case {case}: bank {bank} row {row} at {at} completes at \
                     {done}, not after {prev_done}"
                );
                prev_done = done;
            }
        }
    }
}

/// The FR-FCFS controller completes every load exactly once, regardless
/// of the address mix.
#[test]
fn controller_conserves_loads() {
    let mut rng = SplitMix64::new(0x3E3_0005);
    for _ in 0..CASES {
        let chunks = arb_vec(&mut rng, 128, 1, 64);
        let mut mc = MemoryController::new(64, dram_cfg().n_banks);
        let mut ch = DramChannel::new(dram_cfg(), 1);
        let mut pending: Vec<MemRequest> = chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                MemRequest::new(
                    ReqId(i as u64),
                    AppId::new((i % 2) as u8),
                    CoreId(0),
                    0,
                    Address::new(c * 256),
                    AccessKind::Load,
                )
            })
            .collect();
        let total = pending.len();
        let mut done: Vec<ReqId> = Vec::new();
        let mut now = 0u64;
        while done.len() < total {
            if let Some(req) = pending.first().copied() {
                if mc.push_with(req, &ch, now).is_ok() {
                    pending.remove(0);
                }
            }
            done.extend(mc.step(now, &mut ch).into_iter().map(|r| r.id));
            now += 1;
            assert!(now < 200_000, "controller failed to drain");
        }
        let unique: HashSet<ReqId> = done.iter().copied().collect();
        assert_eq!(unique.len(), total);
        // Attribution: bytes split across the two apps must sum to the total.
        let b0 = mc.counters(AppId::new(0)).dram_bytes;
        let b1 = mc.counters(AppId::new(1)).dram_bytes;
        assert_eq!(b0 + b1, total as u64 * LINE_SIZE);
    }
}

/// FR-FCFS as one arrival-ordered queue scanned front to back — the
/// controller before it was organised by bank, kept here as the model the
/// per-bank controller must match decision for decision.
struct ScanController {
    /// `(request, bank, row)` in arrival order.
    queue: VecDeque<(MemRequest, usize, u64)>,
    capacity: usize,
    /// `(done_at, issue sequence, request)`.
    in_flight: Vec<(u64, u64, MemRequest)>,
    seq: u64,
    counters: [McCounters; 2],
}

impl ScanController {
    fn push(&mut self, req: MemRequest, dram: &DramChannel) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        self.queue
            .push_back((req, dram.bank_of(req.addr), dram.row_of(req.addr)));
        true
    }

    /// The oldest row-hit on a free bank, else the oldest request on a
    /// free bank; then the loads whose data is back, in completion order.
    fn step(&mut self, now: u64, dram: &mut DramChannel) -> Vec<MemRequest> {
        let mut first_free = None;
        let mut pick = None;
        for (i, &(_, bank, row)) in self.queue.iter().enumerate() {
            if dram.bank_free_idx(bank, now) {
                first_free = first_free.or(Some(i));
                if dram.open_row(bank) == Some(row) {
                    pick = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = pick.or(first_free) {
            let (req, bank, row) = self.queue.remove(i).expect("index from the scan");
            let svc = dram.service_at(bank, row, now);
            let c = &mut self.counters[req.app.index()];
            c.dram_bytes += LINE_SIZE;
            if svc.row_hit {
                c.row_hits += 1;
            } else {
                c.row_misses += 1;
            }
            if req.kind == AccessKind::Load {
                self.seq += 1;
                self.in_flight.push((svc.done_at, self.seq, req));
            }
        }
        self.in_flight
            .sort_by_key(|&(done_at, seq, _)| (done_at, seq));
        let n_done = self
            .in_flight
            .partition_point(|&(done_at, ..)| done_at <= now);
        self.in_flight.drain(..n_done).map(|(.., r)| r).collect()
    }

    fn next_issue_at(&self, dram: &DramChannel, from: u64) -> u64 {
        self.queue
            .iter()
            .map(|&(_, bank, _)| dram.bank_busy_until(bank).max(from))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The per-bank controller makes the scan's decisions: same completions on
/// the same cycles, same DRAM bank state (so the same issue order), same
/// counters, queue depth and next-issue horizon, every cycle.
#[test]
fn per_bank_controller_matches_the_arrival_order_scan() {
    let mut rng = SplitMix64::new(0x3E3_0007);
    for mix in ["row-hit", "row-hostile", "two-app"] {
        for capacity in [1usize, 8, 64] {
            for n_banks in [8usize, 16] {
                for page_policy in [gpu_types::PagePolicy::Open, gpu_types::PagePolicy::Closed] {
                    let case = format!("{mix} capacity {capacity} banks {n_banks} {page_policy:?}");
                    let cfg = DramConfig {
                        n_banks,
                        page_policy,
                        ..dram_cfg()
                    };
                    let (mut fast_ch, mut scan_ch) =
                        (DramChannel::new(cfg.clone(), 1), DramChannel::new(cfg, 1));
                    let mut fast = MemoryController::new(capacity, n_banks);
                    let mut scan = ScanController {
                        queue: VecDeque::new(),
                        capacity,
                        in_flight: Vec::new(),
                        seq: 0,
                        counters: [McCounters::default(); 2],
                    };
                    let mut next_id = 0u64;
                    let mut stream_chunk = 0u64;
                    let mut completed = 0usize;
                    for now in 0..3_000u64 {
                        // Up to two arrivals a cycle for the first two thirds
                        // of the run, then the queue drains.
                        let arrivals = if now < 2_000 { rng.next_below(3) } else { 0 };
                        for _ in 0..arrivals {
                            let hostile = match mix {
                                "row-hit" => false,
                                "row-hostile" => true,
                                _ => rng.next_below(2) == 0,
                            };
                            let chunk = if hostile {
                                rng.next_below(1 << 16)
                            } else {
                                // A few chunks of a row, then on to the next
                                // bank, as a streaming kernel does.
                                stream_chunk += rng.next_below(2);
                                stream_chunk
                            };
                            let mut req = MemRequest::new(
                                ReqId(next_id),
                                AppId::new(if mix == "two-app" { hostile as u8 } else { 0 }),
                                CoreId(0),
                                0,
                                Address::new(chunk * 256),
                                AccessKind::Load,
                            );
                            if rng.next_below(5) == 0 {
                                req.kind = AccessKind::Store;
                            }
                            next_id += 1;
                            let accepted = fast.push_with(req, &fast_ch, now).is_ok();
                            assert_eq!(accepted, scan.push(req, &scan_ch), "{case} cycle {now}");
                        }
                        let done: Vec<ReqId> =
                            fast.step(now, &mut fast_ch).iter().map(|r| r.id).collect();
                        let expect: Vec<ReqId> =
                            scan.step(now, &mut scan_ch).iter().map(|r| r.id).collect();
                        assert_eq!(done, expect, "{case} cycle {now}: completions");
                        completed += done.len();
                        for bank in 0..n_banks {
                            assert_eq!(
                                (fast_ch.bank_busy_until(bank), fast_ch.open_row(bank)),
                                (scan_ch.bank_busy_until(bank), scan_ch.open_row(bank)),
                                "{case} cycle {now}: bank {bank} saw a different issue"
                            );
                        }
                        assert_eq!(fast.queued(), scan.queue.len(), "{case} cycle {now}");
                        assert_eq!(
                            fast.outstanding(),
                            scan.in_flight.len(),
                            "{case} cycle {now}"
                        );
                        assert_eq!(
                            fast.next_issue_at(&fast_ch, now + 1),
                            scan.next_issue_at(&scan_ch, now + 1),
                            "{case} cycle {now}: next issue"
                        );
                        for app in 0..2 {
                            assert_eq!(
                                fast.counters(AppId::new(app)),
                                scan.counters[app as usize],
                                "{case} cycle {now}: app {app} counters"
                            );
                        }
                    }
                    assert!(fast.is_idle(), "{case}: controller failed to drain");
                    assert!(completed > 100, "{case}: only {completed} loads completed");
                }
            }
        }
    }
}
