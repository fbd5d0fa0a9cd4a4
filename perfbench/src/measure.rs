//! Order statistics, process memory, on-disk sizes and provenance.

use std::path::Path;

/// Nearest-rank percentile `q` (0–100) of `values`; 0 for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (the mean of the middle pair for an even count); 0 for no
/// values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The mean of `values` without their highest and lowest tenth, so that a
/// rare stall or burst does not pull it; 0 for no values.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// A field of `/proc/self/status` in MiB (`VmRSS`, `VmHWM`).
fn status_mib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resident memory now, in MiB (0 where the platform does not say).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:").unwrap_or(0.0)
}

/// Resident-memory high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free heap pages to the
    // kernel; it takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Returns freed heap pages to the kernel and restarts the resident-memory
/// high-water mark from the current resident size, so the next
/// [`peak_mib`] covers only what runs after this call.
pub fn reset_peak() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A CPU mask as `sched_{get,set}affinity` take it: 1024 bits.
#[cfg(target_os = "linux")]
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty where
/// the platform does not say.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // the buffer we own; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to `cpus`.
#[cfg(target_os = "linux")]
pub fn run_on(cpus: &[usize]) {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel only reads the buffer we own; pid 0 is the
    // calling thread. A refusal leaves the thread where it was.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
pub fn run_on(_cpus: &[usize]) {}

/// Cumulative CPU time of the whole machine as `(all, stolen)` clock
/// ticks from `/proc/stat`; stolen ticks are time the hypervisor ran
/// other guests while this one had work. `(0, 0)` where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = text.lines().next().filter(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The commit the checkout is at, read from `.git` without running git;
/// `None` outside a git work tree.
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the library's sources (`crates/**/*.rs` and manifests, in
/// path order): identifies the code under test where no git metadata
/// travels with the checkout.
pub fn source_digest() -> String {
    fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                collect(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
