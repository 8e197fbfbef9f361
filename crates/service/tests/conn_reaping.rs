//! Finished connection threads are joined as the daemon accepts new
//! connections, not held until drain. `Client` opens one connection per
//! call, so before this every served request left an unjoined thread
//! whose stack mapping stayed until shutdown: 6000 sequential pings grew
//! the process's `VmSize` from 130 MB to 12.6 GB.
//!
//! Its own test binary, so no other test's threads move `VmSize`.

#[cfg(target_os = "linux")]
#[test]
fn sequential_pings_do_not_accumulate_connection_threads() {
    use abr_service::{Client, Daemon, DaemonConfig, Response};
    use std::time::Duration;

    fn vm_size_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    // The warm-up lets the allocator reserve its per-thread arenas
    // (64 MiB of address space each) before the baseline is taken.
    const WARMUP: usize = 100;
    const PINGS: usize = 2000;
    let d = Daemon::start(DaemonConfig { workers: 1, ..DaemonConfig::default() }).unwrap();
    let client = Client::new(d.addr());
    let ping = || assert_eq!(client.ping().unwrap(), Response::Pong);
    (0..WARMUP).for_each(|_| ping());
    let before = vm_size_kib();
    (0..PINGS).for_each(|_| ping());
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    let report = d.shutdown(Duration::from_secs(5));
    assert!(grown_mib < 256, "VmSize grew {grown_mib} MiB over {PINGS} pings");
    assert_eq!(report.connections_joined, WARMUP + PINGS);
}
