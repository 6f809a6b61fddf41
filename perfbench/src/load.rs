//! Load generators for the service workloads: a closed loop keeping a
//! fixed number of queries outstanding, and an open loop issuing
//! queries at seeded Poisson arrival times. Both run on the calling
//! thread, the one client thread the benchmark allows itself.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

use privtopk_core::{QueryTicket, ServiceStats};

use crate::run::{Answer, Budget, Checker, Samples};

/// The submit/collect surface the load generators drive.
pub(crate) trait Frontend {
    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String>;
    fn collect(&mut self, ticket: QueryTicket) -> Result<Answer, String>;
    fn stats(&self) -> ServiceStats;
}

pub(crate) fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one query through `front` and checks it: the first answer that
/// ends every set-up.
pub(crate) fn first_query<F: Frontend>(front: &mut F, checker: &mut Checker) -> Result<(), String> {
    let index = checker.begin();
    let seed = checker.seed_of(index);
    let ticket = front.submit(seed)?;
    let outcome = front.collect(ticket);
    checker.check(index, 0, seed, outcome);
    Ok(())
}

/// Keeps `depth` queries outstanding until the budget closes, then
/// drains. Latency runs from the `submit` call to `collect` returning.
pub(crate) fn closed_loop<F: Frontend>(
    front: &mut F,
    depth: usize,
    budget: &Budget,
    checker: &mut Checker,
) -> Result<Samples, String> {
    let mut samples = Samples::new(budget);
    let frames_before = front.stats().frames_sent;
    let mut in_flight = VecDeque::with_capacity(depth);
    let mut issued = 0u64;
    let mut slot_freed = Instant::now();
    loop {
        while in_flight.len() < depth && budget.admits(issued) {
            let index = checker.begin();
            let seed = checker.seed_of(index);
            let start = Instant::now();
            samples.late(start - slot_freed);
            let ticket = front.submit(seed)?;
            let submitted = start.elapsed();
            in_flight.push_back((ticket, index, seed, start, submitted));
            issued += 1;
        }
        let Some((ticket, index, seed, start, submitted)) = in_flight.pop_front() else {
            break;
        };
        let waiting = Instant::now();
        let outcome = front.collect(ticket);
        slot_freed = Instant::now();
        samples.service(submitted, slot_freed - waiting);
        samples.answered(1, slot_freed - start);
        checker.check(index, 0, seed, outcome);
    }
    check_frames(front, frames_before, &samples, checker);
    Ok(samples)
}

/// Issues one query at a time at seeded Poisson arrivals of `rate_hz`
/// over the pass: `rate × length` due times drawn uniformly and sorted,
/// which is a Poisson process conditioned on its count. Latency runs
/// from each query's due time, so a slow query also charges the queries
/// queued behind it; when the client overslept an idle gap, the clock
/// starts when it woke, and the oversleep is recorded as lateness
/// instead.
pub(crate) fn open_loop<F: Frontend>(
    front: &mut F,
    rate_hz: f64,
    arrivals: &mut SmallRng,
    budget: &Budget,
    checker: &mut Checker,
) -> Result<Samples, String> {
    let mut samples = Samples::new(budget);
    let frames_before = front.stats().frames_sent;
    let start = Instant::now();
    let span_s = budget
        .deadline
        .saturating_duration_since(start)
        .as_secs_f64();
    let count = budget.cap((rate_hz * span_s).round() as u64);
    let mut offsets: Vec<f64> = (0..count).map(|_| arrivals.gen::<f64>() * span_s).collect();
    offsets.sort_unstable_by(f64::total_cmp);
    for offset in offsets {
        let due = start + Duration::from_secs_f64(offset);
        let now = Instant::now();
        let clock = if now < due {
            std::thread::sleep(due - now);
            let woke = Instant::now();
            samples.late(woke - due);
            woke
        } else {
            due
        };
        let index = checker.begin();
        let seed = checker.seed_of(index);
        let submitted = Instant::now();
        let ticket = front.submit(seed)?;
        let waiting = Instant::now();
        let outcome = front.collect(ticket);
        let done = Instant::now();
        samples.service(waiting - submitted, done - waiting);
        samples.answered(1, done - clock);
        checker.check(index, 0, seed, outcome);
    }
    check_frames(front, frames_before, &samples, checker);
    Ok(samples)
}

/// Every drained query must have sent exactly `n · r + n − 1` frames.
fn check_frames<F: Frontend>(front: &F, before: u64, samples: &Samples, checker: &mut Checker) {
    let sent = front.stats().frames_sent - before;
    let expected = samples.queries * checker.frames(0);
    if sent != expected {
        checker.fail(format!(
            "{} queries sent {sent} frames; the cost model says {expected}",
            samples.queries
        ));
    }
}
