//! Starting, probing and stopping `ccal-certd` processes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ccal_certd::client;
use ccal_certd::proto::Addr;

/// How long a process may take to become ready or to exit.
const PATIENCE: Duration = Duration::from_secs(10);

/// A child process that is killed and reaped when dropped, so no path
/// out of the benchmark leaves it running.
struct Proc(Child);

impl Proc {
    fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map(Proc)
            .map_err(|e| format!("spawn {cmd:?}: {e}"))
    }

    fn pid(&self) -> u32 {
        self.0.id()
    }

    fn exited(&mut self) -> bool {
        matches!(self.0.try_wait(), Ok(Some(_)))
    }

    /// Waits up to [`PATIENCE`] for a clean exit, then kills.
    fn finish(&mut self) {
        let deadline = Instant::now() + PATIENCE;
        while Instant::now() < deadline {
            if self.exited() {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let _ = self.0.kill();
        let _ = self.0.wait();
    }

    /// Peak resident memory (`VmHWM`) in MB.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.exited() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// `VmHWM` of the `/proc/*/status` file at `path`, in MB (0 if absent).
pub fn peak_rss_mb(path: &str) -> f64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU time from the first line of `/proc/stat`, summed over
/// CPUs, in clock ticks: `(steal, total)`; `(0, 0)` if unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal; the guest fields
    // that follow are already counted in user and nice.
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|w| w.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A note with the share of the host's CPU time the hypervisor stole
/// since `before` (a [`cpu_ticks`] reading), so a run slowed by other
/// tenants shows as such.
pub fn steal_note(before: (u64, u64)) -> String {
    let (steal, total) = cpu_ticks();
    format!(
        "host: CPU steal was {:.1}% of CPU time during the timed phase",
        100.0 * crate::stats::ratio((steal - before.0) as f64, (total - before.1) as f64)
    )
}

/// Resets this process's `VmHWM` to its current resident size, so the
/// next read gives the peak since now. Where the kernel refuses, the
/// next read gives the peak since the process started.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Whether process `pid` holds an open socket.
fn holds_socket(pid: u32) -> bool {
    fs::read_dir(format!("/proc/{pid}/fd")).is_ok_and(|dir| {
        dir.flatten().any(|e| {
            fs::read_link(e.path()).is_ok_and(|t| t.to_string_lossy().starts_with("socket:"))
        })
    })
}

/// A running daemon with an on-disk store and one shard.
pub struct Service {
    daemon: Proc,
    shard: Proc,
    /// The daemon's unix-socket address.
    pub addr: Addr,
    /// The daemon's store directory.
    pub store: PathBuf,
}

impl Service {
    /// Starts `ccal-certd serve` on a unix socket in `dir` with a store
    /// under it, waits until it answers a ping, then starts
    /// `ccal-certd shard` and waits until it is connected.
    pub fn start(certd: &Path, dir: &Path) -> Result<Service, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("certd.sock");
        let store = dir.join("store");
        let addr = Addr::Unix(sock.clone());
        let mut daemon = Proc::spawn(
            Command::new(certd)
                .arg("serve")
                .arg("--unix")
                .arg(&sock)
                .arg("--store")
                .arg(&store),
        )?;
        let deadline = Instant::now() + PATIENCE;
        while client::ping(&addr).is_err() {
            if daemon.exited() || Instant::now() > deadline {
                return Err("ccal-certd serve did not answer a ping".into());
            }
            thread::sleep(Duration::from_micros(500));
        }
        let mut shard = Proc::spawn(
            Command::new(certd)
                .arg("shard")
                .arg("--connect")
                .arg(addr.to_string()),
        )?;
        while !holds_socket(shard.pid()) {
            if shard.exited() || Instant::now() > deadline {
                return Err("ccal-certd shard did not connect".into());
            }
            thread::sleep(Duration::from_micros(500));
        }
        client::ping(&addr).map_err(|e| format!("ping after shard connect: {e}"))?;
        Ok(Service {
            daemon,
            shard,
            addr,
            store,
        })
    }

    /// Summed peak resident memory of the daemon and the shard, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemon.peak_rss_mb() + self.shard.peak_rss_mb()
    }

    /// Asks the daemon to shut down and waits for it and the shard.
    pub fn stop(mut self) {
        let _ = client::shutdown(&self.addr);
        self.daemon.finish();
        self.shard.finish();
    }
}

/// Starts a service `reps` times, timing each start; every service but
/// the last is stopped and its directory removed. Returns the start
/// times in seconds and the last, running service.
pub fn start_timed(certd: &Path, dir: &Path, reps: usize) -> Result<(Vec<f64>, Service), String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let rep_dir = dir.join(format!("setup-{rep}"));
        let start = Instant::now();
        let svc = Service::start(certd, &rep_dir)?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return Ok((times, svc));
        }
        svc.stop();
        let _ = fs::remove_dir_all(&rep_dir);
    }
    Err("start_timed needs at least one repetition".into())
}
