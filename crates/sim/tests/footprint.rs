//! Pins how much heap one machine holds once its traffic has settled.
//!
//! A campaign keeps many machines alive at once, so a machine's resident
//! state is what a user pays in memory. This binary counts every live heap
//! byte through its own global allocator, builds LUD+NW on each stock
//! configuration at the highest TLP, runs it 2 000 cycles and prints what
//! the machine holds (`cargo test -p gpu-sim --test footprint --
//! --nocapture`). The Volta machine's figure is bounded: state sized to
//! the configuration rather than to the traffic shows up here.

use gpu_sim::machine::Gpu;
use gpu_simt::Warp;
use gpu_types::{GpuConfig, TlpCombo};
use gpu_workloads::{by_name, AppStream};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with a count of the bytes it has handed out and
/// not had back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers entirely to `System`; the counter is a side effect that
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` obeys `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes a LUD+NW machine of `cfg` holds after 2 000 cycles at the
/// highest TLP.
fn machine_heap(cfg: &GpuConfig) -> usize {
    let apps = [by_name("LUD").unwrap(), by_name("NW").unwrap()];
    let before = LIVE.load(Ordering::Relaxed);
    let mut gpu = Gpu::new(cfg, &apps, 42);
    gpu.set_combo(&TlpCombo::uniform(cfg.max_tlp(), 2));
    gpu.run(2_000);
    LIVE.load(Ordering::Relaxed) - before
}

/// What a Volta machine may hold: 5 % over the 3 008 672 bytes measured
/// once cache ways, MSHR slabs, in-flight tables and line buffers were
/// sized to the traffic (4 634 144 before).
const VOLTA_BOUND: usize = 3_159_000;

#[test]
fn a_machine_holds_what_its_traffic_uses() {
    let mut volta = 0;
    for (name, cfg) in [
        ("small", GpuConfig::small()),
        ("volta", GpuConfig::volta()),
        ("paper", GpuConfig::paper()),
    ] {
        let bytes = machine_heap(&cfg);
        println!(
            "footprint: {name} LUD+NW holds {bytes} heap bytes ({:.2} MiB, {} per core)",
            bytes as f64 / (1 << 20) as f64,
            bytes / cfg.n_cores
        );
        if name == "volta" {
            volta = bytes;
        }
    }
    assert!(
        volta <= VOLTA_BOUND,
        "a Volta LUD+NW machine holds {volta} heap bytes, over its bound of {VOLTA_BOUND}"
    );
}

#[test]
fn a_warp_is_its_stream_and_one_decoded_op() {
    // 216 bytes while every warp carried a 16-line buffer inline; a Volta
    // machine has 5 120 of them.
    assert!(std::mem::size_of::<Warp<AppStream>>() <= 80);
}
