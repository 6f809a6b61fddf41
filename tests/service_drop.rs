//! Integration test: a service dropped without `shutdown()` still ends
//! every worker thread it started, over TCP and the lossy in-process
//! network, whether its queries are still in flight or it sits idle. An
//! in-memory ring starts no thread, and its drop must leave none.
//!
//! This lives in its own test binary, like `service_shutdown.rs`, so the
//! thread count it measures is not perturbed by sibling tests running on
//! other harness threads.

use std::time::{Duration, Instant};

use privtopk::core::derive_batch_seed;
use privtopk::core::distributed::NetworkKind;
use privtopk::core::service::ServiceRuntime;
use privtopk::prelude::*;

/// Threads in this process, per the kernel (Linux only; other platforms
/// return `None` and the check is skipped there).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Waits up to 10 s for the thread count to fall back to `before`.
fn assert_threads_return_to(before: Option<usize>, label: &str) {
    let Some(before) = before else { return };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = thread_count().expect("thread count stays readable");
        if now <= before {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{label}: threads outlived the dropped service: {now} > {before}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_dropped_service_ends_its_workers() {
    let n = 6;
    let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(5));
    let locals = DatasetBuilder::new(n)
        .rows_per_node(2)
        .seed(5)
        .build_local_topk(2)
        .expect("valid dataset");
    let before = thread_count();
    let lossy = NetworkKind::LossyInMemory {
        drop_probability: 0.0,
    };
    for network in [NetworkKind::InMemory, NetworkKind::Tcp, lossy] {
        // A full pipeline, never collected: the workers must finish it
        // and exit on their own.
        let mut service = ServiceRuntime::start(&locals, network.clone(), 4).unwrap();
        for i in 0..4u64 {
            service.submit(&config, derive_batch_seed(7, i)).unwrap();
        }
        drop(service);
        assert_threads_return_to(before, &format!("{network:?}, in flight"));

        // Every query answered: the workers wait on their endpoints with
        // nothing open, and only the drop's wake reaches them there.
        let mut service = ServiceRuntime::start(&locals, network.clone(), 4).unwrap();
        service.run(&config, derive_batch_seed(7, 4)).unwrap();
        drop(service);
        assert_threads_return_to(before, &format!("{network:?}, idle"));
    }
}
