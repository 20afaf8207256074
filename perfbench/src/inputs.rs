//! Seeded workload generators. Every input a run feeds the service is
//! derived from `--seed`; the ground truth the quality metrics score
//! against stays on the benchmark's side and never reaches the program.

use crowd_data::{Label, Response, ResponseMatrix, ResponseMatrixBuilder, TaskId, WorkerId};
use crowd_linalg::Matrix;
use crowd_sim::{ArrivalSchedule, paper_matrices, skewed_activity_densities};

/// Responses per report burst on every workload.
pub const BURST: usize = 64;
/// Workers per community in the community fleets.
pub const COMMUNITY: usize = 50;

/// SplitMix64: a tiny, well-mixed generator so the fleets below need no
/// shared RNG state with the simulator crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What the benchmark knows that the program must estimate.
#[derive(Debug, Clone)]
pub enum Truth {
    /// Per-worker symmetric error rate (binary fleets).
    ErrorRates(Vec<f64>),
    /// Per-worker k×k response-probability matrix (k-ary fleets).
    Confusions(Vec<Matrix>),
}

/// One workload's inputs: the fleet the shard plan is built from, the
/// ordered ingest stream, the report bursts, and the ground truth.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Every response the run ingests; the shard plan is built from it.
    pub fleet: ResponseMatrix,
    /// The stream phase, in arrival order.
    pub stream: Vec<Response>,
    /// Report bursts of [`BURST`] responses, ingested after the stream.
    pub bursts: Vec<Vec<Response>>,
    /// Ground truth for interval coverage.
    pub truth: Truth,
}

impl Inputs {
    /// Every response in ingest order: the stream, then the bursts.
    pub fn admitted(&self) -> impl Iterator<Item = &Response> {
        self.stream.iter().chain(self.bursts.iter().flatten())
    }
}

/// A community-structured binary fleet: worker `w` belongs to community
/// `w / COMMUNITY` and answers that community's tasks, each with
/// probability `activity[w]`, flipping the true label with its own
/// error rate drawn uniformly from `[0.05, 0.20]`. Community `c` owns
/// `tasks_per + extra_tasks[c]` consecutive task ids.
struct Communities {
    n: usize,
    tasks_per: usize,
}

impl Communities {
    /// Returns the matrix, the error rates, and the response lists of
    /// each community's extra tasks (task-major, in id order).
    fn generate(
        &self,
        seed: u64,
        activity: &[f64],
        extra_tasks: &[usize],
    ) -> (ResponseMatrix, Vec<f64>, Vec<Vec<Response>>) {
        let m = self.n * COMMUNITY;
        let mut rng = Mix(seed);
        let error_rates: Vec<f64> = (0..m).map(|_| 0.05 + 0.15 * rng.unit()).collect();
        let mut first_task = Vec::with_capacity(self.n + 1);
        let mut next = 0usize;
        for c in 0..self.n {
            first_task.push(next);
            next += self.tasks_per + extra_tasks.get(c).copied().unwrap_or(0);
        }
        first_task.push(next);
        let n_tasks = next;
        let truths: Vec<u16> = (0..n_tasks).map(|_| (rng.next() & 1) as u16).collect();
        let mut builder = ResponseMatrixBuilder::new(m, n_tasks, 2);
        let mut extra: Vec<Vec<Response>> = vec![Vec::new(); self.n];
        for c in 0..self.n {
            let workers = c * COMMUNITY..(c + 1) * COMMUNITY;
            let tasks = truths.iter().enumerate().take(first_task[c + 1]);
            for (t, &truth) in tasks.skip(first_task[c]) {
                for w in workers.clone() {
                    if rng.unit() >= activity[w] {
                        continue;
                    }
                    let flip = rng.unit() < error_rates[w];
                    let r = Response {
                        worker: WorkerId(w as u32),
                        task: TaskId(t as u32),
                        label: Label(truth ^ u16::from(flip)),
                    };
                    builder
                        .push(r.worker, r.task, r.label)
                        .expect("generated ids are in range");
                    if t >= first_task[c] + self.tasks_per {
                        extra[c].push(r);
                    }
                }
            }
        }
        let fleet = builder.build().expect("generated cells are unique");
        (fleet, error_rates, extra)
    }
}

/// Arrival order: a seeded uniform shuffle of `fleet`'s responses (the
/// simulator's Poisson schedule; only its order is used).
fn shuffled(fleet: &ResponseMatrix, seed: u64) -> Vec<Response> {
    ArrivalSchedule::poisson(fleet, 1000.0, &mut crowd_sim::rng(seed))
        .responses()
        .to_vec()
}

/// Splits the last `n_bursts` × [`BURST`] responses off `order`.
fn split_tail(mut order: Vec<Response>, n_bursts: usize) -> (Vec<Response>, Vec<Vec<Response>>) {
    let cut = order.len() - n_bursts * BURST;
    let tail = order.split_off(cut);
    (
        order,
        tail.chunks(BURST).map(<[Response]>::to_vec).collect(),
    )
}

/// Shape of the `trickle` fleet.
#[derive(Debug, Clone, Copy)]
pub struct TrickleShape {
    /// Communities of 50 workers each.
    pub communities: usize,
    /// Tasks per community.
    pub tasks_per: usize,
    /// Report bursts held off the end of the arrival order.
    pub bursts: usize,
}

/// The community fleet of the request-at-a-time workload: every worker
/// at density 0.35 in its own community, arriving in shuffled order.
pub fn trickle(seed: u64, shape: TrickleShape) -> Inputs {
    let c = Communities {
        n: shape.communities,
        tasks_per: shape.tasks_per,
    };
    let activity = vec![0.35; shape.communities * COMMUNITY];
    let (fleet, rates, _) = c.generate(seed, &activity, &[]);
    let (stream, bursts) = split_tail(shuffled(&fleet, seed ^ 0x7121), shape.bursts);
    Inputs {
        fleet,
        stream,
        bursts,
        truth: Truth::ErrorRates(rates),
    }
}

/// Shape of the `burst` fleet.
#[derive(Debug, Clone, Copy)]
pub struct BurstShape {
    /// Communities of 50 workers each.
    pub communities: usize,
    /// Tasks per community in the seed stream.
    pub tasks_per: usize,
    /// The Zipf head: bursts rotate over this many leading communities.
    pub hot: usize,
    /// Report bursts.
    pub bursts: usize,
}

/// The skewed-activity fleet: global-Zipf worker activity
/// (`skewed_activity_densities(m, 1.0, 0.15)`), so the leading
/// communities are dense and the long tail sits at the floor. Each hot
/// community also owns fresh tasks that only the bursts answer: burst
/// `b` is the next [`BURST`] responses on hot community `b % hot`'s
/// fresh tasks, so every burst dirties one community's neighbourhood.
pub fn burst(seed: u64, shape: BurstShape) -> Inputs {
    let c = Communities {
        n: shape.communities,
        tasks_per: shape.tasks_per,
    };
    let m = shape.communities * COMMUNITY;
    let activity = skewed_activity_densities(m, 1.0, 0.15);
    let per_community = shape.bursts.div_ceil(shape.hot);
    // Expected responses per fresh task in community `h`, with a 50%
    // margin so the pools never run dry.
    let extra: Vec<usize> = (0..shape.hot)
        .map(|h| {
            let per_task: f64 = activity[h * COMMUNITY..(h + 1) * COMMUNITY].iter().sum();
            ((per_community * BURST) as f64 * 1.5 / per_task).ceil() as usize
        })
        .collect();
    let (fleet, rates, pools) = c.generate(seed, &activity, &extra);
    let bursts: Vec<Vec<Response>> = (0..shape.bursts)
        .map(|b| {
            let (h, round) = (b % shape.hot, b / shape.hot);
            pools[h][round * BURST..(round + 1) * BURST].to_vec()
        })
        .collect();
    // The stream is everything but the held-out pools' used prefix, in
    // shuffled order; unused fresh-task responses join the stream.
    let mut held = std::collections::HashSet::new();
    for r in bursts.iter().flatten() {
        held.insert((r.worker, r.task));
    }
    let stream = shuffled(&fleet, seed ^ 0xB0257)
        .into_iter()
        .filter(|r| !held.contains(&(r.worker, r.task)))
        .collect();
    Inputs {
        fleet,
        stream,
        bursts,
        truth: Truth::ErrorRates(rates),
    }
}

/// Shape of the `dense-kary` fleet.
#[derive(Debug, Clone, Copy)]
pub struct DenseShape {
    /// Workers; every pair co-occurs.
    pub workers: usize,
    /// Tasks.
    pub tasks: usize,
    /// Attempt probability per (worker, task).
    pub density: f64,
    /// Report bursts held off the end of the arrival order.
    pub bursts: usize,
}

/// The paper's k = 3 scenario: its published response-probability
/// matrices (`crowd_sim::paper_matrices(3)`), uniform true labels, iid
/// attempts at `density`. Matrices are assigned round-robin rather than
/// drawn, so every seed assesses the same mix of worker qualities.
pub fn dense_kary(seed: u64, shape: DenseShape) -> Inputs {
    let pool = paper_matrices(3);
    let mut rng = Mix(seed);
    let truths: Vec<usize> = (0..shape.tasks)
        .map(|_| (rng.next() % 3) as usize)
        .collect();
    let mut builder = ResponseMatrixBuilder::new(shape.workers, shape.tasks, 3);
    for w in 0..shape.workers {
        let p = &pool[w % pool.len()];
        for (t, &truth) in truths.iter().enumerate() {
            if rng.unit() >= shape.density {
                continue;
            }
            let u = rng.unit();
            let mut label = 2;
            let mut acc = 0.0;
            for c in 0..2 {
                acc += p.get(truth, c);
                if u < acc {
                    label = c;
                    break;
                }
            }
            builder
                .push(WorkerId(w as u32), TaskId(t as u32), Label(label as u16))
                .expect("generated ids are in range");
        }
    }
    let fleet = builder.build().expect("generated cells are unique");
    let truth = (0..shape.workers)
        .map(|w| pool[w % pool.len()].clone())
        .collect();
    let (stream, bursts) = split_tail(shuffled(&fleet, seed ^ 0xDE45), shape.bursts);
    Inputs {
        fleet,
        stream,
        bursts,
        truth: Truth::Confusions(truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_TRICKLE: TrickleShape = TrickleShape {
        communities: 3,
        tasks_per: 20,
        bursts: 2,
    };

    #[test]
    fn same_seed_same_inputs() {
        let (a, b) = (trickle(7, TINY_TRICKLE), trickle(7, TINY_TRICKLE));
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.bursts, b.bursts);
        assert_ne!(a.stream, trickle(8, TINY_TRICKLE).stream);
    }

    #[test]
    fn every_fleet_response_is_admitted_once() {
        let shape = BurstShape {
            communities: 6,
            tasks_per: 20,
            hot: 2,
            bursts: 4,
        };
        for inputs in [
            trickle(3, TINY_TRICKLE),
            burst(3, shape),
            dense_kary(
                3,
                DenseShape {
                    workers: 6,
                    tasks: 60,
                    density: 0.9,
                    bursts: 2,
                },
            ),
        ] {
            let mut seen: Vec<(WorkerId, TaskId)> =
                inputs.admitted().map(|r| (r.worker, r.task)).collect();
            let n = seen.len();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), n, "a response is admitted twice");
            assert_eq!(n, inputs.fleet.n_responses());
            assert!(inputs.bursts.iter().all(|b| b.len() == BURST));
        }
    }

    #[test]
    fn bursts_land_in_hot_communities() {
        let shape = BurstShape {
            communities: 6,
            tasks_per: 20,
            hot: 2,
            bursts: 4,
        };
        let inputs = burst(5, shape);
        for (b, burst) in inputs.bursts.iter().enumerate() {
            assert!(burst.iter().all(|r| r.worker.index() / COMMUNITY == b % 2));
        }
    }
}
