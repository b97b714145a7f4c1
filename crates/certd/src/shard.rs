//! The shard worker: connects to the daemon, polls for chunk leases,
//! runs each leased window through the registry, and reports back. A
//! long-lived shard keeps its own warm exploration state per semantic sharing
//! key (shipped in the lease frame), so re-checks of known units — and
//! sibling units of an already-explored family — start warm on the
//! shard too.

use std::io;
use std::thread;
use std::time::Duration;

use crate::proto::{read_msg, write_msg, Addr, Conn, Msg, VERSION};
use crate::registry::{self, WarmMap};

/// Shard behavior knobs (the test hooks are also reachable via
/// `CCAL_CERTD_SHARD_*` environment variables in the CLI).
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Fault injection: disconnect (without completing) upon *receiving*
    /// the nth lease — a deterministic stand-in for a worker killed
    /// mid-chunk.
    pub exit_after: Option<usize>,
    /// Sleep this long before running each lease; widens the window in
    /// which an external `kill -9` lands mid-lease.
    pub delay: Duration,
}

/// Why a shard loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardExit {
    /// The daemon asked us to shut down.
    Shutdown,
    /// The connection failed (daemon gone).
    ConnectionLost,
    /// The [`ShardOptions::exit_after`] fault fired.
    Injected,
}

/// Runs the shard loop over one connection until the daemon goes away.
///
/// # Errors
///
/// Only connection setup can fail; once polling, transport errors map to
/// [`ShardExit::ConnectionLost`].
pub fn run_shard(addr: &Addr, opts: &ShardOptions) -> io::Result<ShardExit> {
    let mut conn = Conn::connect(addr)?;
    write_msg(
        &mut conn,
        &Msg::Hello {
            role: "shard".into(),
            version: VERSION,
        },
    )?;
    let warm = WarmMap::new();
    let mut leases_taken = 0usize;
    loop {
        if write_msg(&mut conn, &Msg::LeaseReq).is_err() {
            return Ok(ShardExit::ConnectionLost);
        }
        match read_msg(&mut conn) {
            Ok(Msg::Lease(lease)) => {
                leases_taken += 1;
                if opts.exit_after.is_some_and(|n| leases_taken >= n) {
                    // Simulated death: drop the connection with the lease
                    // outstanding. The daemon must re-lease the window.
                    return Ok(ShardExit::Injected);
                }
                if !opts.delay.is_zero() {
                    thread::sleep(opts.delay);
                }
                let warm_state = lease.warm.then(|| warm.get(&lease.share));
                let report = registry::run_lease(&lease, warm_state.as_ref());
                if write_msg(
                    &mut conn,
                    &Msg::ChunkDone {
                        id: lease.id,
                        report,
                    },
                )
                .is_err()
                {
                    return Ok(ShardExit::ConnectionLost);
                }
            }
            Ok(Msg::NoWork { retry_ms }) => {
                thread::sleep(Duration::from_millis(retry_ms.clamp(1, 1000)));
            }
            Ok(Msg::Shutdown) => return Ok(ShardExit::Shutdown),
            Ok(_) | Err(_) => return Ok(ShardExit::ConnectionLost),
        }
    }
}
