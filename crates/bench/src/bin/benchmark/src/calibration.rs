//! The host-speed reference. The machines this benchmark runs on share
//! their cores with other work, and the simulator's host wall time swings
//! with it: on a 2-vCPU VM the same solve measured 140 ms and 260 ms a
//! minute apart. A fixed piece of host work, timed between requests,
//! slows down with the simulator, so host times are reported scaled to
//! the speed at which it takes [`REFERENCE_MS`].

use std::sync::OnceLock;
use std::time::Instant;

/// The reference work's time at the speed host metrics are reported at;
/// roughly its time on an unloaded 2-vCPU Xeon VM.
pub const REFERENCE_MS: f64 = 32.0;

/// Points of the min-plus closure in the reference work.
const CLOSURE_N: usize = 192;
/// Values summed by the streaming part of the reference work (16 MiB).
const STREAM_LEN: usize = 1 << 21;

struct Inputs {
    keys: Vec<u32>,
    dist: Vec<f64>,
    stream: Vec<f64>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Inputs {
            keys: (0..1 << 20).map(|_| next() as u32).collect(),
            dist: (0..CLOSURE_N * CLOSURE_N)
                .map(|_| (next() % 1000) as f64)
                .collect(),
            stream: (0..STREAM_LEN).map(|i| i as f64).collect(),
        }
    })
}

/// Runs the reference work — sorting 2^20 keys (4 MiB, branchy), a
/// min-plus closure over 192 points (floating point, cache-resident) and
/// four sums over 16 MiB (bandwidth) — and returns its host time in
/// milliseconds. Together they track the simulator's slowdowns under load
/// more closely than any one of them.
pub fn reference_ms() -> f64 {
    let inputs = inputs();
    let start = Instant::now();
    let mut keys = inputs.keys.clone();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    let n = CLOSURE_N;
    let mut d = inputs.dist.clone();
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            for j in 0..n {
                let via = dik + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    std::hint::black_box(&d);
    for _ in 0..4 {
        std::hint::black_box(inputs.stream.iter().sum::<f64>());
    }
    start.elapsed().as_secs_f64() * 1e3
}
