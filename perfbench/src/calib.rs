//! A fixed probe of how fast the host runs right now.
//!
//! Shared machines change speed by tens of percent over seconds to
//! minutes as neighbours come and go, and a CPU-time clock does not see
//! it. The benchmark times this kernel before and after every timed run
//! and scales the run by it, so a drift in machine speed cancels while a
//! change in the simulator's own cost does not. The kernel is shaped like
//! the simulator's inner loop — pop the earliest of a few thousand
//! timestamped events and schedule a successor — and does not depend on
//! the code under test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events kept on the probe's calendar.
const PENDING: u32 = 4096;
/// Pop/push steps per probe (about 80 ms on a 2.x GHz Xeon core).
const STEPS: usize = 1_000_000;

/// Host seconds of one pass of the probe kernel.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut calendar: BinaryHeap<Reverse<(u64, u32)>> = (0..PENDING)
        .map(|id| Reverse((next() % 1_000_000, id)))
        .collect();
    let mut now = 0;
    for _ in 0..STEPS {
        let Some(Reverse((at, id))) = calendar.pop() else {
            break;
        };
        now = at;
        calendar.push(Reverse((now + next() % 1_000_000, id)));
    }
    black_box((now, calendar.len()));
    t0.elapsed().as_secs_f64()
}
