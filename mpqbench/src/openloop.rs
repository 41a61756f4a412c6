//! The open-loop load generator: requests are sent on a schedule fixed in
//! advance, whether or not earlier ones have been answered, and each
//! request's latency is timed from when it was **due**, not from when it
//! was sent. A stall — in the program or in the generator — therefore
//! charges every request queued behind it, as it would charge independent
//! users.

use rand::Rng;
use std::time::{Duration, Instant};

/// `n` arrival offsets of a Poisson process with `n` arrivals in
/// `[0, window)`: sorted uniform draws, so every run of a given length
/// offers exactly the same number of requests.
pub fn poisson_schedule(n: usize, window: Duration, rng: &mut impl Rng) -> Vec<Duration> {
    let w = window.as_secs_f64();
    let mut due: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..w)).collect();
    due.sort_by(|a, b| a.total_cmp(b));
    due.into_iter().map(Duration::from_secs_f64).collect()
}

/// Calls `send(i, lateness)` for each request at `start + dues[i]`,
/// sleeping until each is due, and returns how late each send began. A
/// `send` that blocks delays every later send; that delay shows up as
/// their lateness.
pub fn drive(
    start: Instant,
    dues: &[Duration],
    mut send: impl FnMut(usize, Duration),
) -> Vec<Duration> {
    let mut all = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        let at = start + due;
        let now = Instant::now();
        if now < at {
            std::thread::sleep(at - now);
        }
        let lateness = Instant::now().saturating_duration_since(at);
        all.push(lateness);
        send(i, lateness);
    }
    all
}

/// Latency from the due time: how late the send began plus how long the
/// request took once sent.
pub fn due_latency(lateness: Duration, service_secs: f64) -> f64 {
    lateness.as_secs_f64() + service_secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        let dues: Vec<Duration> = (0..4).map(Duration::from_millis).collect();
        let start = Instant::now();
        // Request 0 blocks its send for 50 ms (a synchronous submit that
        // stalled); the others are answered the moment they are sent.
        let lateness = drive(start, &dues, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let latency: Vec<f64> = lateness.iter().map(|&l| due_latency(l, 0.0)).collect();
        // Requests 1..3 were due at 1, 2, 3 ms but could only be sent at
        // 50 ms: each is charged the wait, although its own service time
        // was zero.
        for (i, &l) in latency.iter().enumerate().skip(1) {
            assert!(l >= 0.050 - (i as f64) * 1e-3, "request {i}: {l}");
        }
        assert!(latency[0] < 0.040, "request 0 was sent on time");
    }

    #[test]
    fn schedule_is_seeded_sorted_and_inside_the_window() {
        let w = Duration::from_secs(2);
        let a = poisson_schedule(500, w, &mut StdRng::seed_from_u64(3));
        let b = poisson_schedule(500, w, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.iter().all(|&d| d < w));
    }
}
