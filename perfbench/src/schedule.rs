//! Seeded open-loop arrival schedules made of constant-rate segments.
//!
//! Every workload's load is a list of segments with absolute rates fixed
//! in the benchmark (never scaled by a measurement of the program), and
//! Poisson arrivals drawn from the run's seed. Each arrival also draws
//! which of the run's distinct inputs it carries.

use crate::stats::{mean, quantile};
use ms_tensor::SeededRng;

/// A stretch of constant offered rate.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Offered requests per second.
    pub rps: f64,
    /// Length in seconds.
    pub secs: f64,
}

/// Arrival instants (seconds from the start), their segment and input.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub segments: Vec<Segment>,
    /// Start of each segment, seconds.
    pub seg_start: Vec<f64>,
    pub at: Vec<f64>,
    pub seg: Vec<u16>,
    pub input: Vec<u16>,
}

/// Uniform draw in `(0, 1]` with 53 bits of resolution.
pub fn unit(rng: &mut SeededRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

impl Schedule {
    pub fn poisson(segments: &[Segment], seed: u64, inputs: usize) -> Schedule {
        assert!(inputs > 0 && inputs <= u16::MAX as usize + 1);
        let mut rng = SeededRng::new(seed);
        let mut s = Schedule {
            segments: segments.to_vec(),
            seg_start: Vec::with_capacity(segments.len()),
            at: Vec::new(),
            seg: Vec::new(),
            input: Vec::new(),
        };
        let mut start = 0.0;
        for (i, g) in segments.iter().enumerate() {
            s.seg_start.push(start);
            let end = start + g.secs;
            let mut t = start;
            loop {
                t += -unit(&mut rng).ln() / g.rps;
                if t >= end {
                    break;
                }
                s.at.push(t);
                s.seg.push(i as u16);
                s.input.push(rng.below(inputs) as u16);
            }
            start = end;
        }
        s
    }

    pub fn len(&self) -> usize {
        self.at.len()
    }
}

/// A pass's load: `episodes` repeats of one episode's segments, then
/// `staircases` repeats of a staircase (the `wire_small` capacity probe).
/// End-to-end metrics are computed per episode and reported as the
/// median, so a transient stall of the host moves one episode, not the
/// result; capacity is the median knee over the staircases.
#[derive(Debug, Clone)]
pub struct Plan {
    pub episode: Vec<Segment>,
    pub episodes: usize,
    pub staircase: Vec<Segment>,
    pub staircases: usize,
}

impl Plan {
    pub fn segments(&self) -> Vec<Segment> {
        let mut v = Vec::new();
        for _ in 0..self.episodes {
            v.extend_from_slice(&self.episode);
        }
        for _ in 0..self.staircases {
            v.extend_from_slice(&self.staircase);
        }
        v
    }

    /// Index of the first staircase segment.
    pub fn tail_start(&self) -> usize {
        self.episode.len() * self.episodes
    }

    /// The plan with every segment stretched so the whole lasts `seconds`.
    pub fn scaled_to(&self, seconds: f64) -> Plan {
        let total: f64 = self.segments().iter().map(|s| s.secs).sum();
        let f = seconds / total;
        let scale = |v: &[Segment]| -> Vec<Segment> {
            v.iter()
                .map(|s| Segment {
                    rps: s.rps,
                    secs: s.secs * f,
                })
                .collect()
        };
        Plan {
            episode: scale(&self.episode),
            staircase: scale(&self.staircase),
            ..self.clone()
        }
    }
}

/// Share of the machine's CPU time the host may steal over an interval
/// before the interval's figures are left out of the medians.
pub const DISTURBED_STEAL: f64 = 0.05;

/// Which intervals to keep, given the share of CPU time the host stole
/// over each: those at or under [`DISTURBED_STEAL`]; when fewer than
/// `max(3, n/4)` qualify, that many least-disturbed ones instead.
///
/// On a shared virtual machine the host takes the CPUs away in bursts of
/// up to ~100 ms, for stretches of seconds to minutes; an episode inside
/// such a stretch measures the neighbours, not the program.
pub fn undisturbed(steal_share: &[f64]) -> Vec<bool> {
    let n = steal_share.len();
    let need = 3.max(n.div_ceil(4)).min(n);
    let quiet: Vec<bool> = steal_share.iter().map(|&s| s <= DISTURBED_STEAL).collect();
    if quiet.iter().filter(|&&k| k).count() >= need {
        return quiet;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| steal_share[a].total_cmp(&steal_share[b]));
    let mut keep = vec![false; n];
    for &i in &order[..need] {
        keep[i] = true;
    }
    keep
}

/// Stolen share of `cpus` CPUs' time over `wall_s` seconds.
pub fn steal_share(steal_s: f64, wall_s: f64, cpus: usize) -> f64 {
    if wall_s <= 0.0 {
        0.0
    } else {
        steal_s / (wall_s * cpus as f64)
    }
}

/// Client-judged outcome of one segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentVerdict {
    pub secs: f64,
    pub sent: usize,
    /// Answered with logits within the latency limit.
    pub hits: usize,
}

/// The highest on-time throughput (answers within the limit per second)
/// the system sustained over one segment of at least `5·t_ms` (a spike
/// is not a rate the system sustains). On a staircase this is the knee;
/// past it, on-time throughput falls.
pub fn capacity(verdicts: &[SegmentVerdict], t_ms: f64) -> f64 {
    verdicts
        .iter()
        .filter(|v| v.secs >= 5.0 * t_ms * 1e-3)
        .map(|v| v.hits as f64 / v.secs)
        .fold(0.0, f64::max)
}

/// What each request of a pass came to: latency in ms (NaN when not
/// answered with logits) and the rate it was served at.
pub struct Outcomes<'a> {
    pub sched: &'a Schedule,
    pub latency_ms: &'a [f32],
    /// The latency a hit is judged on: `latency_ms` itself for a shard; the
    /// processing time after the batching window closed for a replay.
    pub judged_ms: &'a [f32],
    pub rate: &'a [f32],
    /// Limit `judged_ms` must meet for a hit.
    pub t_ms: f64,
}

/// End-to-end figures of one episode.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeFigures {
    pub sent: usize,
    pub delivered: usize,
    pub hits: usize,
    pub served_rate_mean: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl Outcomes<'_> {
    pub fn segment_verdicts(&self) -> Vec<SegmentVerdict> {
        let mut v: Vec<SegmentVerdict> = self
            .sched
            .segments
            .iter()
            .map(|g| SegmentVerdict {
                secs: g.secs,
                ..SegmentVerdict::default()
            })
            .collect();
        for i in 0..self.sched.len() {
            let s = self.sched.seg[i] as usize;
            v[s].sent += 1;
            if self.judged_ms[i] as f64 <= self.t_ms {
                v[s].hits += 1;
            }
        }
        v
    }

    /// Figures of each of `plan`'s episodes.
    pub fn episodes(&self, plan: &Plan) -> Vec<EpisodeFigures> {
        let per = plan.episode.len();
        let mut out = vec![EpisodeFigures::default(); plan.episodes];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); plan.episodes];
        let mut rates: Vec<Vec<f64>> = vec![Vec::new(); plan.episodes];
        for i in 0..self.sched.len() {
            let s = self.sched.seg[i] as usize;
            if s >= plan.tail_start() {
                continue;
            }
            let e = s / per;
            out[e].sent += 1;
            let l = self.latency_ms[i];
            if !l.is_nan() {
                lat[e].push(l as f64);
                rates[e].push(self.rate[i] as f64);
                if self.judged_ms[i] as f64 <= self.t_ms {
                    out[e].hits += 1;
                }
            }
        }
        for (e, f) in out.iter_mut().enumerate() {
            f.delivered = lat[e].len();
            f.served_rate_mean = mean(&rates[e]);
            f.p50_ms = quantile(&mut lat[e], 0.50);
            f.p99_ms = quantile(&mut lat[e], 0.99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_rates_hold() {
        let segs = [
            Segment {
                rps: 1000.0,
                secs: 2.0,
            },
            Segment {
                rps: 4000.0,
                secs: 1.0,
            },
        ];
        let a = Schedule::poisson(&segs, 7, 16);
        let b = Schedule::poisson(&segs, 7, 16);
        assert_eq!(a.at, b.at);
        assert_eq!(a.input, b.input);
        let first = a.seg.iter().filter(|&&s| s == 0).count() as f64;
        let second = a.seg.iter().filter(|&&s| s == 1).count() as f64;
        assert!((first - 2000.0).abs() < 200.0, "{first}");
        assert!((second - 4000.0).abs() < 300.0, "{second}");
        assert!(a.at.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn disturbed_intervals_are_dropped_unless_too_few_remain() {
        let mut shares = vec![0.3; 12];
        shares[..4].copy_from_slice(&[0.01, 0.0, 0.04, 0.05]);
        assert_eq!(undisturbed(&shares).iter().filter(|&&k| k).count(), 4);
        // Only two quiet ones: keep the three least disturbed.
        let keep = undisturbed(&[0.2, 0.01, 0.3, 0.1, 0.0, 0.4]);
        assert_eq!(keep, vec![false, true, false, true, true, false]);
        // Three staircases are all kept.
        assert_eq!(undisturbed(&[0.2, 0.3, 0.4]), vec![true; 3]);
        assert_eq!(steal_share(0.1, 1.0, 2), 0.05);
    }

    #[test]
    fn capacity_is_best_sustained_on_time_throughput() {
        let v = |rps: f64, secs: f64, hits| SegmentVerdict {
            secs,
            sent: (rps * secs) as usize,
            hits,
        };
        let vs = [
            v(10.0, 1.0, 10),
            v(40.0, 1.0, 30),
            v(80.0, 1.0, 20),
            v(500.0, 0.1, 50),
        ];
        // The 0.1 s spike is shorter than five 40 ms limits.
        assert_eq!(capacity(&vs, 40.0), 30.0);
    }
}
