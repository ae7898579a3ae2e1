//! The host a result was measured on, and the process's peak memory.

use loki_bench::report::Json;
use std::path::Path;

/// Identity of the measuring host and build.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// The checkout's git revision, or `unknown` outside a git work tree.
    pub git_revision: String,
}

impl Host {
    /// Probe the host. `root` is the checkout the benchmark runs in.
    pub fn probe(root: &Path) -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_revision: git_revision(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.push("cores", self.cores.into())
            .push("cpu_model", self.cpu_model.as_str().into())
            .push("rustc", self.rustc.as_str().into())
            .push("git_revision", self.git_revision.as_str().into());
        obj
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Resolve `.git/HEAD` by reading the files, without running git.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// CPU time the threads of this process have run so far, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, 64-bit Linux). On a virtual machine whose
/// kernel accounts steal time, this leaves out the time the hypervisor ran
/// other guests on the virtual CPU, which wall time counts.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let (wall, before) = (std::time::Instant::now(), process_cpu_ns());
        let mut x = 1u64;
        while wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = process_cpu_ns() - before;
        assert!(used > 1_000_000, "20 ms of spinning used {used} ns of CPU");
    }

    #[test]
    fn a_missing_git_dir_reads_unknown() {
        let host = Host::probe(Path::new("no-such-checkout"));
        assert_eq!(host.git_revision, "unknown");
        assert!(host.cores >= 1);
        assert!(host.rustc.starts_with("rustc "), "{}", host.rustc);
    }
}
