//! Integration test: shutting down the persistent service drains every
//! in-flight query, joins all node workers, and leaks no threads. Over
//! the lossy in-process network each node has a worker thread; an
//! in-memory ring runs every worker on the caller's thread and starts
//! none.
//!
//! This lives in its own test binary so the thread count it measures is
//! not perturbed by sibling tests running on other harness threads.

use privtopk::core::derive_batch_seed;
use privtopk::core::distributed::NetworkKind;
use privtopk::core::service::ServiceRuntime;
use privtopk::prelude::*;

fn fresh_locals(n: usize, k: usize, seed: u64) -> Vec<TopKVector> {
    DatasetBuilder::new(n)
        .rows_per_node(k.max(2))
        .seed(seed)
        .build_local_topk(k)
        .expect("valid dataset")
}

/// Threads in this process, per the kernel (Linux only; other platforms
/// return `None` and the leak check is skipped there).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Waits up to 5 s for the thread count to fall back to `before`.
fn assert_no_threads_left(before: Option<usize>, label: &str) {
    let Some(before) = before else { return };
    // Joined threads disappear from /proc synchronously, but give the
    // kernel a moment anyway before declaring a leak.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let now = thread_count().expect("thread count stays readable");
        if now <= before {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{label}: worker threads leaked after shutdown: {now} > {before}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Starts a depth-4 service of `n` nodes on `network`, fills its
/// pipeline, collects one query and shuts it down with three still in
/// flight. `running` checks the thread count at each step while the
/// service is up.
fn drain_through_shutdown(n: usize, network: NetworkKind, running: impl Fn(Option<usize>)) {
    let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(5));
    let locals = fresh_locals(n, 2, 3);

    let mut service = ServiceRuntime::start(&locals, network, 4).unwrap();
    running(thread_count());

    // Leave a full pipeline of queries uncollected: shutdown must drain
    // them, not abandon them mid-ring.
    let mut tickets = Vec::new();
    for i in 0..4u64 {
        tickets.push(service.submit(&config, derive_batch_seed(99, i)).unwrap());
    }
    running(thread_count());
    // Collect one to prove drained queries still resolve, leave three
    // in flight.
    let outcome = service.collect(tickets.remove(0)).unwrap();
    assert_eq!(outcome.per_node_results.len(), n);
    running(thread_count());
    service.shutdown().unwrap();
}

#[test]
fn shutdown_drains_in_flight_queries_and_leaks_no_threads() {
    let n = 6;
    let before = thread_count();

    // The lossless lossy network is in-process and keeps one thread per
    // node.
    let lossy = NetworkKind::LossyInMemory {
        drop_probability: 0.0,
    };
    drain_through_shutdown(n, lossy, |running| {
        if let (Some(before), Some(running)) = (before, running) {
            assert_eq!(running, before + n, "one standing worker per node");
        }
    });
    assert_no_threads_left(before, "lossy");

    // An in-memory ring runs on the caller's thread and starts none.
    drain_through_shutdown(n, NetworkKind::InMemory, |running| {
        if let (Some(before), Some(running)) = (before, running) {
            assert!(
                running <= before,
                "an in-memory service started threads: {running} > {before}"
            );
        }
    });
    assert_no_threads_left(before, "in memory");
}
