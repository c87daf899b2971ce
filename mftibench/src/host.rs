//! Host-drift reference loop, clock and process memory: minor page
//! faults and a counting global allocator.
//!
//! The benchmark host's speed drifts between and within runs (shared
//! CPUs). A fixed computation that calls no library code is timed
//! before every operation; each library timing is then scaled by
//! `REF_NOMINAL_MS / (reference time near that timing)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Side of the square `f64` matrices the reference loop multiplies.
const REF_N: usize = 230;

/// Nominal reference-loop time in ms (README, "Host-drift scaling").
/// Scaled timings read as milliseconds on a host that runs the
/// reference loop in exactly this time.
pub const REF_NOMINAL_MS: f64 = 3.0;

/// Probes nearest in time to a timing whose median sets its scale.
const PROBES_PER_SCALE: usize = 3;

/// A timing taken during the run: when it happened (seconds since the
/// run's clock origin, at its midpoint) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub at_s: f64,
    pub raw_ms: f64,
}

/// Run clock plus the reference loop's probes.
#[derive(Debug)]
pub struct Host {
    origin: Instant,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    probes: Vec<Timed>,
    cold_heap: bool,
}

impl Host {
    /// With `cold_heap`, every timed call starts from a trimmed heap
    /// (`fresh_heap`).
    pub fn new(cold_heap: bool) -> Self {
        let fill = |salt: usize| -> Vec<f64> {
            (0..REF_N * REF_N)
                .map(|i| ((i * 7919 + salt) % 1009) as f64 / 1009.0 - 0.5)
                .collect()
        };
        Host {
            origin: Instant::now(),
            a: fill(1),
            b: fill(2),
            c: vec![0.0; REF_N * REF_N],
            probes: Vec::new(),
            cold_heap,
        }
    }

    /// Seconds since the run's clock origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Trims the heap before a timed call when the run measures on a
    /// cold heap.
    pub fn fresh_heap(&self) {
        if self.cold_heap {
            trim_heap();
        }
    }

    /// Runs `f` (see `fresh_heap`) and counts the minor page faults it
    /// takes.
    pub fn faulting<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        self.fresh_heap();
        let before = minor_faults();
        let out = f();
        (out, minor_faults() - before)
    }

    /// Runs `f` (see `fresh_heap`) and records when and how long it ran.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Timed) {
        self.fresh_heap();
        let start = self.now_s();
        let out = f();
        let end = self.now_s();
        let timed = Timed {
            at_s: 0.5 * (start + end),
            raw_ms: (end - start) * 1e3,
        };
        (out, timed)
    }

    /// Times the reference loop once: a naive `C = A·B` in `i-k-j` order.
    pub fn probe(&mut self) {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        let start = self.now_s();
        self.c.fill(0.0);
        for i in 0..REF_N {
            let row = &mut self.c[i * REF_N..(i + 1) * REF_N];
            for k in 0..REF_N {
                let aik = a[i * REF_N + k];
                for (cij, bkj) in row.iter_mut().zip(&b[k * REF_N..(k + 1) * REF_N]) {
                    *cij += aik * bkj;
                }
            }
        }
        black_box(&self.c);
        let end = self.now_s();
        self.probes.push(Timed {
            at_s: 0.5 * (start + end),
            raw_ms: (end - start) * 1e3,
        });
    }

    /// Raw reference-loop times (ms) of every probe taken so far.
    pub fn probe_ms(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.raw_ms).collect()
    }

    /// `t` in nominal-host milliseconds: its raw time times
    /// `REF_NOMINAL_MS` over the median of the probes nearest to it.
    pub fn scaled_ms(&self, t: Timed) -> f64 {
        // Probes are in time order: the nearest ones sit around the
        // insertion point.
        let at = self.probes.partition_point(|p| p.at_s < t.at_s);
        let window = &self.probes
            [at.saturating_sub(PROBES_PER_SCALE)..(at + PROBES_PER_SCALE).min(self.probes.len())];
        let mut near: Vec<&Timed> = window.iter().collect();
        near.sort_by(|p, q| (p.at_s - t.at_s).abs().total_cmp(&(q.at_s - t.at_s).abs()));
        near.truncate(PROBES_PER_SCALE);
        let local: Vec<f64> = near.iter().map(|p| p.raw_ms).collect();
        t.raw_ms * REF_NOMINAL_MS / median(&local)
    }

    pub fn scaled_all(&self, ts: &[Timed]) -> Vec<f64> {
        ts.iter().map(|&t| self.scaled_ms(t)).collect()
    }
}

/// Median (mean of the middle two for even length); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated `q`-quantile; NaN when `xs` is empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the system, so the next call
/// pays for every page it touches. Without it, whether a one-shot fit
/// or sweep re-faults its working set depends on what ran before it:
/// the multiport sweep then takes 6 or 12 ms by turns (0 or ~1800
/// minor faults) and a run's median flips between the two.
fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` takes a byte count and only
    // releases free heap memory; no Rust object refers to free memory.
    unsafe {
        malloc_trim(0);
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_ixrss_idrss_isrss: [i64; 4],
    minflt: i64,
    rest: [i64; 9],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_ixrss_idrss_isrss: [0; 4],
        minflt: 0,
        rest: [0; 9],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s of two `long`s, then fourteen `long`s), and
    // the pointer is to a live, writable value of that type.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> f64 {
    rusage().minflt as f64
}

/// The system allocator, counting the live heap bytes and their peak.
///
/// `getrusage`'s `ru_maxrss` cannot stand in for it: Linux carries the
/// high-water mark of the process that spawned this one across `exec`,
/// so under `cargo run` every run read at least cargo's own ~29 MB,
/// more than a stream's whole footprint.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

/// Live heap in MB; restarts the peak from it.
pub fn reset_heap_peak_mb() -> f64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live as f64 / (1024.0 * 1024.0)
}

/// Peak live heap in MB since the last `reset_heap_peak_mb`.
pub fn heap_peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}
