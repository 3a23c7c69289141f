//! The environment block every result carries: reported and effective
//! parallelism, the kernel backend, cache sizes, toolchain and revision.
//! Everything is probed in-process: CPUID, and the process's own
//! `/proc/self/status` for its peak resident set. The benchmark reads no
//! other file outside its checkout.

use std::time::Instant;

/// Toolchain and revision captured by `build.rs`.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");
/// `git rev-parse` of the tree the benchmark was built from, or `unknown`.
pub const GIT_REV: &str = env!("PERFBENCH_GIT_REV");

/// Probed facts about the host.
#[derive(Debug, Clone)]
pub struct EnvInfo {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Effective parallelism from a two-thread spin probe: 2.0 means two
    /// threads really ran at once, 1.0 means they shared one core.
    pub effective_parallelism: f64,
    /// The resolved `core::simd` backend and whether AVX2 is present.
    pub backend: String,
    /// Per-core L2 and shared L3 sizes in bytes, when CPUID reports them.
    pub l2_bytes: Option<u64>,
    /// See `l2_bytes`.
    pub l3_bytes: Option<u64>,
}

impl EnvInfo {
    /// Probe the host (about 0.1 s, dominated by the spin probe).
    pub fn probe() -> Self {
        let (l2_bytes, l3_bytes) = cache_sizes();
        EnvInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_parallelism: spin_probe(),
            backend: format!(
                "{} (avx2 {})",
                tenbench_core::simd::current_backend().name(),
                tenbench_core::simd::avx2_available()
            ),
            l2_bytes,
            l3_bytes,
        }
    }

    /// The environment lines, with the workload's tensor bytes set against
    /// the caches.
    pub fn lines(&self, seed: u64, tensor_bytes: u64) -> Vec<String> {
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        let cache =
            |c: Option<u64>| c.map_or("unknown".to_string(), |b| format!("{:.1} MiB", mib(b)));
        let resident = match self.l3_bytes {
            Some(l3) if tensor_bytes <= l3 => "fits in L3 (cache-resident)",
            Some(_) => "larger than L3",
            None => "L3 unknown",
        };
        vec![
            format!(
                "env: nproc {} effective_parallelism {:.2} (two-thread spin probe) backend {}",
                self.nproc, self.effective_parallelism, self.backend
            ),
            format!(
                "env: L2 {} L3 {} workload tensor {:.1} MiB, {resident}",
                cache(self.l2_bytes),
                cache(self.l3_bytes),
                mib(tensor_bytes)
            ),
            format!("env: {RUSTC} rev {GIT_REV} seed {seed}"),
        ]
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x)
}

/// Time one thread spinning, then two threads each doing the same spin at
/// once; the ratio is how many cores the two threads actually got.
fn spin_probe() -> f64 {
    let mut iters = 1u64 << 16;
    let one = loop {
        let t = Instant::now();
        spin(iters);
        let s = t.elapsed().as_secs_f64();
        if s > 0.02 {
            break s;
        }
        iters *= 2;
    };
    let t = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(iters));
        let b = s.spawn(|| spin(iters));
        a.join().expect("spin probe thread");
        b.join().expect("spin probe thread");
    });
    2.0 * one / t.elapsed().as_secs_f64()
}

/// L2/L3 sizes from CPUID's deterministic cache parameters (leaf 4 on
/// Intel, 0x8000_001D on AMD; both share the layout).
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::__cpuid_count;
    // Leaves 0 and 0x8000_0000 report the highest supported leaves,
    // checked before the cache leaves are queried.
    let l0 = __cpuid_count(0, 0);
    let (max_basic, max_ext, vendor_ebx) = (l0.eax, __cpuid_count(0x8000_0000, 0).eax, l0.ebx);
    let amd = vendor_ebx == u32::from_le_bytes(*b"Auth");
    let leaf = if amd { 0x8000_001D } else { 4 };
    let supported = if amd {
        max_ext >= leaf
    } else {
        max_basic >= leaf
    };
    if !supported {
        return (None, None);
    }
    let (mut l2, mut l3) = (None, None);
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let bytes = ways * parts * line * sets;
        match level {
            2 if kind != 1 => l2 = Some(bytes),
            3 => l3 = Some(bytes),
            _ => {}
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}

/// Peak resident set of this process's address space so far, in MiB
/// (`VmHWM`). Not `getrusage`'s `ru_maxrss`: Linux carries that across
/// `exec`, so under `cargo run` it reports cargo's own footprint (about
/// 28 MiB) whenever the workload's peak is smaller.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        // The kernel reports it in kB.
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}
