//! Summary statistics, the host-speed probe, the per-round estimator and
//! the result line.
//!
//! Every time metric is built from many short rounds of identical work.
//! Around each round the benchmark runs [`probe`], a fixed piece of its
//! own code, and divides the round's times by how much slower than on the
//! reference host the probe ran: a round that ran while the host was slow
//! is scaled back to reference speed. The run's value is then the median
//! of the normalized rounds. README.md records the spreads these choices
//! gave.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` with linear interpolation between the
/// order statistics (`q` in `[0, 1]`), or `None` for no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Interquartile range over the median, the spread measure the proof runs
/// use too.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let iqr = quantile(values, 0.75)? - quantile(values, 0.25)?;
    (m != 0.0).then(|| iqr / m)
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample at rank `n - TAIL_BEYOND` (1-based) of the sorted
/// values. Returns `(value, percentile)`, where `percentile` is the share
/// of samples at or below the value, or `None` with too few samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some((v[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// The probe's two parts' times on the reference host (2 vCPUs, the
/// machine the spreads in README.md were measured on). Normalized times
/// read as "time at reference speed".
pub const PROBE_REF_COMPUTE_S: f64 = 0.003;
pub const PROBE_REF_WAKEUP_S: f64 = 0.0047;

/// One run of the host-speed probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// The computing part: arithmetic, memory and allocation.
    pub compute_s: f64,
    /// The loopback ping-pong between two threads.
    pub wakeup_s: f64,
}

impl Probe {
    /// How much slower than the reference host the probe ran: the
    /// computing part alone, or `with_wakeups` both parts together.
    pub fn slowdown(&self, with_wakeups: bool) -> f64 {
        if with_wakeups {
            (self.compute_s + self.wakeup_s) / (PROBE_REF_COMPUTE_S + PROBE_REF_WAKEUP_S)
        } else {
            self.compute_s / PROBE_REF_COMPUTE_S
        }
    }

    /// The mean of two probes, e.g. one before and one after a stream.
    pub fn mean(&self, other: &Probe) -> Probe {
        Probe {
            compute_s: (self.compute_s + other.compute_s) / 2.0,
            wakeup_s: (self.wakeup_s + other.wakeup_s) / 2.0,
        }
    }
}

/// Words in the probe's random-walk table (4 MiB of `u64`).
const PROBE_TABLE: usize = 1 << 19;
/// Round trips of the probe's loopback ping-pong.
const PROBE_PINGS: usize = 200;

/// The random-walk table, built once so page faults stay out of the
/// probe.
fn probe_table() -> &'static [u64] {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        (0..PROBE_TABLE as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 45)
            .collect()
    })
}

/// A fixed piece of work mixing what the measured code spends its time
/// on — dependent integer arithmetic, cache-missing memory reads, small
/// allocations in an ordered map, then a loopback TCP ping-pong between
/// two threads (the server workloads' requests wait on exactly such
/// wake-ups) — each part timed in seconds. It is the benchmark's own
/// code, so a change to the program under test never moves it.
pub fn probe() -> Probe {
    let table = probe_table();
    let t = Instant::now();
    // Integer work: a dependent multiply-xorshift chain.
    let mut h = black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..200_000 {
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    // Memory: a dependent random walk over a table bigger than L2.
    let mut at = black_box(h as usize) % PROBE_TABLE;
    for _ in 0..100_000 {
        at = (table[at] as usize ^ at.wrapping_mul(31)) % PROBE_TABLE;
    }
    // Allocation: an ordered map of short strings, built and dropped.
    let mut map = BTreeMap::new();
    for i in 0..4_000u64 {
        map.insert(format!("k{}", i.wrapping_mul(2_654_435_761) % 100_003), i);
    }
    black_box((at, map.len()));
    let compute_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    ping_pong();
    Probe {
        compute_s,
        wakeup_s: t.elapsed().as_secs_f64(),
    }
}

/// [`PROBE_PINGS`] round trips of 64 bytes over a loopback connection
/// between two threads.
fn ping_pong() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the probe's loopback socket");
    let addr = listener.local_addr().expect("the probe socket's address");
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut conn, _) = listener.accept().expect("accept the probe connection");
            conn.set_nodelay(true).expect("set TCP_NODELAY");
            let mut buf = [0u8; 64];
            for _ in 0..PROBE_PINGS {
                conn.read_exact(&mut buf).expect("probe read");
                conn.write_all(&buf).expect("probe write");
            }
        });
        let mut conn = TcpStream::connect(addr).expect("connect the probe socket");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        let mut buf = [7u8; 64];
        for _ in 0..PROBE_PINGS {
            conn.write_all(&buf).expect("probe write");
            conn.read_exact(&mut buf).expect("probe read");
        }
    });
}

/// Scale a time measured while the host ran `slowdown` times slower than
/// the reference to the reference speed.
pub fn normalize_time(raw: f64, slowdown: f64) -> f64 {
    raw / slowdown
}

/// Scale a rate measured while the host ran `slowdown` times slower than
/// the reference to the reference speed.
pub fn normalize_rate(raw: f64, slowdown: f64) -> f64 {
    raw * slowdown
}

/// One round's samples of a time metric, with the host's slowdown then.
pub struct Round {
    pub slowdown: f64,
    pub samples: Vec<f64>,
}

/// The estimator for a latency: every round's median, normalized by its
/// probe, then the median over rounds.
pub fn latency_estimate(rounds: &[Round]) -> Option<f64> {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter_map(|r| Some(normalize_time(median(&r.samples)?, r.slowdown)))
        .collect();
    median(&per_round)
}

/// Metric names the result line may carry: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&values), Some((1.0, 100.0 / 11.0)));
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (v, p) = tail(&values).unwrap();
        assert_eq!(v, 990.0);
        assert_eq!(p, 99.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.1), Some(1.4));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(iqr_over_median(&v), Some((4.0 - 2.0) / 3.0));
    }

    #[test]
    fn probe_normalization_scales_both_ways() {
        // A round measured while the probe ran twice as slow as the
        // reference took twice as long as it would at reference speed.
        let slow = Probe {
            compute_s: 2.0 * PROBE_REF_COMPUTE_S,
            wakeup_s: 2.0 * PROBE_REF_WAKEUP_S,
        };
        for wakeups in [false, true] {
            let s = slow.slowdown(wakeups);
            assert!((s - 2.0).abs() < 1e-12);
            assert!((normalize_time(10.0, s) - 5.0).abs() < 1e-12);
            assert!((normalize_rate(100.0, s) - 200.0).abs() < 1e-9);
        }
        // Only the computing part: the ping-pong does not count.
        let busy_net = Probe {
            compute_s: PROBE_REF_COMPUTE_S,
            wakeup_s: 3.0 * PROBE_REF_WAKEUP_S,
        };
        assert_eq!(busy_net.slowdown(false), 1.0);
        assert!(busy_net.slowdown(true) > 1.0);
        assert_eq!(normalize_time(3.0, 1.0), 3.0);
        // Time and rate normalization are inverse to each other.
        let (t, s) = (0.25, 0.8);
        assert!((1.0 / normalize_time(t, s) - normalize_rate(1.0 / t, s)).abs() < 1e-9);
        let m = slow.mean(&busy_net);
        assert!((m.compute_s - 1.5 * PROBE_REF_COMPUTE_S).abs() < 1e-15);
    }

    #[test]
    fn latency_estimate_is_the_median_of_normalized_round_medians() {
        let rounds = [
            Round {
                slowdown: 1.0,
                samples: vec![1.0, 2.0, 9.0],
            },
            Round {
                slowdown: 2.0,
                samples: vec![6.0, 6.0],
            },
            Round {
                slowdown: 0.5,
                samples: vec![0.5, 1.5, 1.0],
            },
            Round {
                slowdown: 1.0,
                samples: vec![],
            },
        ];
        // Normalized round medians: 2, 3, 2; the empty round is skipped.
        assert_eq!(latency_estimate(&rounds), Some(2.0));
        assert_eq!(latency_estimate(&[]), None);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let p = probe();
        for t in [p.compute_s, p.wakeup_s] {
            assert!(t > 0.0 && t < 1.0, "probe took {t} s");
        }
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "durability.fsync_us",
            "serve.residual_commit_us",
            "9-a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", "a b", "p99%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
