//! Small measuring tools: order statistics, process memory, the host
//! stamp, and a reader for the program's Prometheus text export.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Spread as the benchmark reports it next to every median: the
/// distance between the first and the third quartile as a share of the
/// median (quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them — the driver's definition); with fewer than four values,
/// `(max − min) / median`. 0 when empty.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / m;
    }
    let quartile = |i: usize| {
        let at = i * (v.len() + 1);
        let j = (at / 4).clamp(1, v.len() - 1);
        let delta = (at - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / m
}

/// The `q`-quantile (nearest rank) of `sorted` nanosecond samples.
pub fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// A field of `/proc/self/status` in MiB (`VmHWM` = peak resident set,
/// `VmRSS` = current); 0 where the file is not available.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the CPU it is running on; returns that CPU, or `None` where pinning
/// is not possible.
///
/// The wire workloads use this. A closed loop over one connection never
/// has more than one runnable thread (the client waits while the server
/// works and the other way round), so one CPU loses nothing; but left to
/// the scheduler, client and server sometimes land on one CPU and
/// sometimes on two, and on the reference host a cross-CPU wake-up of an
/// idle virtual CPU turns a 19 µs round trip into a 67 µs one for as
/// long as the placement lasts — minutes of bimodal numbers that say
/// nothing about the program.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The C library's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only returns a number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the
    // `cpusetsize` bytes passed with it, and the call only reads it;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// Where the numbers come from: stamped into every output, because a
/// number without its host is not comparable.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type of the data directory.
    pub data_fs: String,
    /// Git commit of the checkout, when it is a git checkout.
    pub commit: String,
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_default()
}

/// Filesystem type of the longest mount point that prefixes `path`.
fn fs_type_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mount, ty) = (it.next()?, it.next()?, it.next()?);
            path.starts_with(mount).then(|| (mount.len(), ty.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty)
}

/// The commit `HEAD` points at, read from `.git` directly (the harness
/// starts no helper processes); `"unknown"` outside a git checkout.
fn git_commit(root: &std::path::Path) -> String {
    let head = first_line(&root.join(".git/HEAD").to_string_lossy());
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => first_line(&root.join(".git").join(r).to_string_lossy()),
        None => head,
    };
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit
    }
}

impl HostStamp {
    /// Stamp this host; `data_dir` is where the durable workload writes.
    pub fn collect(data_dir: &std::path::Path, repo_root: &std::path::Path) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            kernel: first_line("/proc/sys/kernel/osrelease"),
            data_fs: fs_type_of(data_dir),
            commit: git_commit(repo_root),
        }
    }
}

/// The program's Prometheus text export, summed per family over all
/// label sets (per-shard series add up to the service-wide count).
#[derive(Debug, Clone, Default)]
pub struct PromSnapshot {
    families: BTreeMap<String, f64>,
    labelled: BTreeMap<String, f64>,
}

impl PromSnapshot {
    /// Parse one exposition document.
    pub fn parse(text: &str) -> Self {
        let mut snap = PromSnapshot::default();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let family = series.split('{').next().unwrap_or(series);
            *snap.families.entry(family.to_owned()).or_default() += value;
            *snap.labelled.entry(series.to_owned()).or_default() += value;
        }
        snap
    }

    /// Sum of `family` over all its label sets; 0 when absent.
    pub fn get(&self, family: &str) -> f64 {
        self.families.get(family).copied().unwrap_or(0.0)
    }

    /// Mean of a histogram family (`_sum / _count`) restricted to the
    /// series whose label text contains `label` (empty = all).
    pub fn hist_mean(&self, family: &str, label: &str) -> f64 {
        let pick = |suffix: &str| -> f64 {
            let name = format!("{family}{suffix}");
            self.labelled
                .iter()
                .filter(|(k, _)| k.split('{').next() == Some(name.as_str()) && k.contains(label))
                .map(|(_, v)| *v)
                .sum()
        };
        let count = pick("_count");
        if count == 0.0 {
            0.0
        } else {
            pick("_sum") / count
        }
    }

    /// Every family with its summed value (for the determinism check).
    pub fn families(&self) -> &BTreeMap<String, f64> {
        &self.families
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), 1.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ns(&sorted, 0.5), 50.0);
        assert_eq!(quantile_ns(&sorted, 0.99), 99.0);
    }

    #[test]
    fn prom_snapshot_sums_label_sets() {
        let snap = PromSnapshot::parse(
            "# TYPE a counter\na{shard=\"0\"} 2\na{shard=\"1\"} 3\nh_sum{phase=\"x\"} 10\nh_count{phase=\"x\"} 4\n",
        );
        assert_eq!(snap.get("a"), 5.0);
        assert_eq!(snap.hist_mean("h", "phase=\"x\""), 2.5);
        assert_eq!(snap.hist_mean("h", "phase=\"y\""), 0.0);
    }
}
