//! Pins how much heap one machine holds once its traffic has settled.
//!
//! A campaign keeps many machines alive at once, so a machine's resident
//! state is what a user pays in memory. This binary counts the live heap
//! bytes of the measuring thread through its own global allocator, builds
//! LUD+NW on each stock configuration at the highest TLP, runs it 2 000
//! cycles and prints what the machine holds (`cargo test -p gpu-sim --test
//! footprint -- --nocapture`), with the Volta machine's live allocations
//! grouped by size. Every figure is bounded: state sized to the
//! configuration rather than to the traffic shows up here.

use gpu_mem::MemRequest;
use gpu_sim::machine::Gpu;
use gpu_simt::Warp;
use gpu_types::{GpuConfig, TlpCombo};
use gpu_workloads::{by_name, AppStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// The system allocator with a count of the bytes it has handed out to
/// counted threads and not had back, and of the blocks it holds out per
/// size.
struct Counting;

thread_local! {
    /// Whether this thread's allocations are counted: only while it
    /// measures a machine, so the test harness and the binary's other
    /// tests, on threads of their own, leave the figures alone. Constant
    /// and without a destructor, it is safe to read inside the allocator.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Slots of the per-size table: more than the distinct block sizes a run
/// allocates.
const SLOTS: usize = 4096;

/// The per-size table, open-addressed by size: `SIZES[i]` is the block
/// size slot `i` counts (0 while unclaimed) and `BLOCKS[i]` how many
/// blocks of it are live.
static SIZES: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
static BLOCKS: [AtomicIsize; SLOTS] = [const { AtomicIsize::new(0) }; SLOTS];

/// Adds `delta` live blocks of `size` bytes (dropped if the table is full).
fn count_blocks(size: usize, delta: isize) {
    let mut i = size.wrapping_mul(0x9E37_79B9) % SLOTS;
    for _ in 0..SLOTS {
        match SIZES[i].compare_exchange(0, size, Ordering::Relaxed, Ordering::Relaxed) {
            Err(other) if other != size => i = (i + 1) % SLOTS,
            _ => {
                BLOCKS[i].fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
    }
}

fn on_alloc(size: usize) {
    if COUNTED.with(Cell::get) {
        LIVE.fetch_add(size, Ordering::Relaxed);
        count_blocks(size, 1);
    }
}

fn on_dealloc(size: usize) {
    if COUNTED.with(Cell::get) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
        count_blocks(size, -1);
    }
}

// SAFETY: defers entirely to `System`; the counters are a side effect
// that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        on_dealloc(layout.size());
        // SAFETY: as for `dealloc`; `new_size` obeys `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Copies the live block count of every slot into `out` (which has room
/// for them all, so the copy allocates nothing).
fn live_blocks(out: &mut Vec<isize>) {
    out.clear();
    out.extend(BLOCKS.iter().map(|b| b.load(Ordering::Relaxed)));
}

/// What a machine holds: its heap bytes and its blocks grouped by size,
/// `(size, count)`, largest total first.
struct Heap {
    bytes: usize,
    by_size: Vec<(usize, isize)>,
}

/// The heap a LUD+NW machine of `cfg` holds after 2 000 cycles at the
/// highest TLP.
fn machine_heap(cfg: &GpuConfig) -> Heap {
    let apps = [by_name("LUD").unwrap(), by_name("NW").unwrap()];
    let (mut at_start, mut at_end) = (Vec::with_capacity(SLOTS), Vec::with_capacity(SLOTS));
    live_blocks(&mut at_start);
    let before = LIVE.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let mut gpu = Gpu::new(cfg, &apps, 42);
    gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
    gpu.run(2_000);
    COUNTED.with(|c| c.set(false));
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    live_blocks(&mut at_end);
    let mut by_size: Vec<(usize, isize)> = (0..SLOTS)
        .map(|i| (SIZES[i].load(Ordering::Relaxed), at_end[i] - at_start[i]))
        .filter(|&(_, n)| n != 0)
        .collect();
    by_size.sort_by_key(|&(size, n)| std::cmp::Reverse(size as isize * n));
    drop(gpu);
    Heap { bytes, by_size }
}

/// What each machine may hold: 5 % over the bytes measured with 8-byte
/// cache ways, MSHR targets in a shared pool, 24-byte requests and 64-byte
/// warps (small 36 218, Volta 1 815 904, paper 304 006; the same in every
/// run, as only the measuring thread is counted).
const SMALL_BOUND: usize = 38_030;
const VOLTA_BOUND: usize = 1_908_000;
const PAPER_BOUND: usize = 319_200;

#[test]
fn a_machine_holds_what_its_traffic_uses() {
    for (name, cfg, bound) in [
        ("small", GpuConfig::small(), SMALL_BOUND),
        ("volta", GpuConfig::volta(), VOLTA_BOUND),
        ("paper", GpuConfig::paper(), PAPER_BOUND),
    ] {
        let heap = machine_heap(&cfg);
        let bytes = heap.bytes;
        println!(
            "footprint: {name} LUD+NW holds {bytes} heap bytes ({:.2} MiB, {} per core)",
            bytes as f64 / (1 << 20) as f64,
            bytes / cfg.n_cores
        );
        if name == "volta" {
            println!("footprint: volta live blocks by size (count x bytes = total):");
            for &(size, n) in heap.by_size.iter().take(16) {
                println!("  {n:>6} x {size:>7} = {:>8}", n * size as isize);
            }
        }
        assert!(
            bytes <= bound,
            "a {name} LUD+NW machine holds {bytes} heap bytes, over its bound of {bound}"
        );
    }
}

#[test]
fn a_warp_is_its_stream_and_one_decoded_op() {
    // A Volta machine has 5 120 of them.
    assert_eq!(std::mem::size_of::<Warp<AppStream>>(), 64);
}

#[test]
fn a_request_is_24_bytes() {
    // Every queue between a core and DRAM holds requests by value.
    assert!(std::mem::size_of::<MemRequest>() <= 24);
}
