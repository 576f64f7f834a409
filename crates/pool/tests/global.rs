//! Proof that `global().par_map` — the path the dataset sweeps use —
//! really fans out across OS threads.
//!
//! Runs in its own test binary so it can size the process-global pool
//! explicitly (the CI box may report a single hardware core, which would
//! otherwise default the pool to one job and make the assertion vacuous).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn global_par_map_uses_more_than_one_os_thread() {
    sw_pool::configure_global(4).expect("first global-pool user in this process");
    let started = AtomicUsize::new(0);
    let ids = sw_pool::global().par_map(&[0usize, 1], |&i| {
        // Rendezvous: each item blocks until both have started, which is
        // only possible with two threads running concurrently.
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(20);
        while started.load(Ordering::SeqCst) < 2 {
            assert!(
                Instant::now() < deadline,
                "item {i} waited 20s for a second thread: par_map is sequential"
            );
            thread::yield_now();
        }
        thread::current().id()
    });
    assert_ne!(ids[0], ids[1], "par_map ran both items on one OS thread");
    assert!(sw_pool::global().stats().worker_items >= 1);
}
