//! The seven workloads as plain data: sizes (fixed here and restated in
//! `BENCHMARK.json`'s `why` lines), the inputs a seed draws, the closed-form
//! result every rank must return, and the operation counts that follow from
//! the definition alone. Nothing here calls the product; `adapter` turns
//! these values into product configurations.
//!
//! The seed never changes the problem size. It draws the compute
//! granularity in whole microseconds inside a window that keeps the number
//! of time slices per iteration fixed (a ±5 % window would move the slice
//! count, and with it `host_s`, by more than a third of the bound), the
//! payload bytes, and for `ckpt_recover` which nodes crash.

/// Every workload name, in the order `run.sh` runs them.
pub const NAMES: [&str; 7] = [
    "repro_quick",
    "idle_scale",
    "halo_p2p",
    "particle_match",
    "particle_replay",
    "coll_rdma",
    "ckpt_recover",
];

/// The default seed; 1969 is held out for claims (see README).
pub const DEFAULT_SEED: u64 = 2003;

/// The experiments registered in `repro` today, listed explicitly so a
/// later registration does not silently change what `repro_quick` times.
pub const REPRO_EXPERIMENTS: [&str; 20] = [
    "table1",
    "fig2",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig9",
    "fig10",
    "fig11a",
    "fig11b",
    "ablation-slice",
    "ablation-reduce",
    "ablation-noise",
    "ablation-chunk",
    "ablation-multijob",
    "ablation-fault",
    "ablation-schedule",
    "storm-launch",
    "scale",
    "fabric-matrix",
];

/// splitmix64: the benchmark's own generator, so inputs do not depend on
/// the product's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct IdleScale {
    pub nodes: usize,
    pub ranks: usize,
    pub iters: u64,
    pub granularity_us: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct HaloP2p {
    pub ranks: usize,
    pub iters: u64,
    pub neighbors: usize,
    pub granularity_us: u64,
    pub msg_bytes: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Particle {
    pub nodes: usize,
    pub ranks: usize,
    pub iters: u64,
    pub neighbors: usize,
    pub msgs_per_peer: usize,
    pub granularity_us: u64,
    pub msg_bytes: usize,
    /// `true` = identical tags every iteration (compiled-schedule replay).
    pub stable: bool,
}

#[derive(Clone, Debug, PartialEq)]
pub struct CollRdma {
    pub nodes: usize,
    pub ranks: usize,
    pub rounds: u64,
    pub elems: usize,
    /// Added to every contribution; whole numbers keep every sum exact.
    pub offset: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct CkptRecover {
    pub nodes: usize,
    pub ranks: usize,
    pub iters: u64,
    pub big_bytes: usize,
    pub small_bytes: usize,
    pub checkpoint_every: u64,
    /// First byte of every ring payload.
    pub fill: u8,
    /// `(node, slice)` of each injected crash, in slice order.
    pub crashes: Vec<(usize, u64)>,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Inputs {
    ReproQuick,
    IdleScale(IdleScale),
    HaloP2p(HaloP2p),
    Particle(Particle),
    CollRdma(CollRdma),
    CkptRecover(CkptRecover),
}

/// Generate the inputs of `workload` from `seed`. `None` for an unknown name.
pub fn inputs(workload: &str, seed: u64) -> Option<Inputs> {
    // One stream per workload, so adding a draw to one leaves the others'
    // inputs as they were.
    let salt = workload
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d));
    Some(match workload {
        "repro_quick" => Inputs::ReproQuick,
        "idle_scale" => Inputs::IdleScale(IdleScale {
            nodes: 8192,
            ranks: 16384,
            iters: IDLE_ITERS,
            // 19 whole slices of compute, the barrier in the 20th.
            granularity_us: rng.range(9_520, 9_980),
        }),
        "halo_p2p" => Inputs::HaloP2p(HaloP2p {
            ranks: 62,
            iters: HALO_ITERS,
            neighbors: 4,
            granularity_us: rng.range(380, 420),
            msg_bytes: 4096 - rng.range(0, 63) as usize,
        }),
        "particle_match" | "particle_replay" => Inputs::Particle(Particle {
            nodes: 16,
            ranks: 32,
            iters: PARTICLE_ITERS,
            neighbors: 4,
            msgs_per_peer: 48,
            granularity_us: rng.range(380, 420),
            msg_bytes: rng.range(28, 36) as usize,
            stable: workload == "particle_replay",
        }),
        "coll_rdma" => Inputs::CollRdma(CollRdma {
            nodes: 1024,
            ranks: 2048,
            rounds: COLL_ROUNDS,
            elems: 8,
            offset: rng.range(0, 999),
        }),
        "ckpt_recover" => {
            let nodes = 16;
            let crashes = (1..=CKPT_CRASHES)
                .map(|k| {
                    let slice = k * CKPT_SLICES_EST / (CKPT_CRASHES + 1);
                    (rng.range(0, nodes as u64 - 1) as usize, slice)
                })
                .collect();
            Inputs::CkptRecover(CkptRecover {
                nodes,
                ranks: 32,
                iters: CKPT_ITERS,
                big_bytes: 8192,
                small_bytes: 512,
                checkpoint_every: 4,
                fill: rng.range(0, 255) as u8,
                crashes,
            })
        }
        _ => return None,
    })
}

// Sizes: each repetition takes about a second on the 2-core box the
// baseline in README.md was measured on, so a 12 s run holds 8 or more.
const IDLE_ITERS: u64 = 3;
const HALO_ITERS: u64 = 1200;
const PARTICLE_ITERS: u64 = 44;
const COLL_ROUNDS: u64 = 200;
const CKPT_ITERS: u64 = 1800;
const CKPT_CRASHES: u64 = 6;
/// Slices the fault-free `ckpt_recover` run takes (measured: four per three
/// ring iterations); crashes are spread evenly over them, so all six fire.
const CKPT_SLICES_EST: u64 = CKPT_ITERS * 4 / 3;

/// Ring neighbours of `me` as `apps::synthetic` chooses them: +1, -1, +2, ...
fn ring_peers(me: usize, n: usize, count: usize) -> Vec<usize> {
    let mut peers = Vec::new();
    for o in 1..=count.div_ceil(2) {
        peers.push((me + o) % n);
        if peers.len() < count {
            peers.push((me + n - o) % n);
        }
    }
    peers
}

/// First plus last byte of the payload whose byte `i` is `(base + i) as u8`.
fn ends(base: usize, bytes: usize) -> u64 {
    u64::from(base as u8) + u64::from((base + bytes - 1) as u8)
}

impl HaloP2p {
    /// Checksum `neighbor_loop` returns on `rank`: per iteration, first
    /// plus last byte of each neighbour's payload.
    pub fn expected(&self, rank: usize) -> u64 {
        let per_iter: u64 = ring_peers(rank, self.ranks, self.neighbors)
            .iter()
            .map(|&p| ends(p, self.msg_bytes))
            .sum();
        self.iters.wrapping_mul(per_iter)
    }
}

impl Particle {
    /// Checksum `particle_stress` returns on `rank`.
    pub fn expected(&self, rank: usize) -> u64 {
        let per_iter: u64 = ring_peers(rank, self.ranks, self.neighbors)
            .iter()
            .map(|&p| {
                (0..self.msgs_per_peer)
                    .map(|m| ends(p + m, self.msg_bytes))
                    .sum::<u64>()
            })
            .sum();
        self.iters.wrapping_mul(per_iter)
    }
}

impl CollRdma {
    /// Rank `r` contributes `r + j + offset` in element `j` every round.
    pub fn contribution(&self, rank: usize, j: usize) -> f64 {
        (rank as u64 + j as u64 + self.offset) as f64
    }

    /// Every rank returns the last round's sums, element by element.
    pub fn expected(&self) -> Vec<f64> {
        let n = self.ranks as u64;
        (0..self.elems as u64)
            .map(|j| (n * (n - 1) / 2 + n * (j + self.offset)) as f64)
            .collect()
    }
}

impl CkptRecover {
    /// Payload bytes of ring iteration `it`.
    pub fn bytes_at(&self, it: u64) -> usize {
        if it.is_multiple_of(2) {
            self.big_bytes
        } else {
            self.small_bytes
        }
    }

    /// Whether iteration `it` ends with the 2-element allreduce.
    pub fn reduces_at(&self, it: u64) -> bool {
        it % 3 == 2
    }

    /// What the ring program returns on `rank`: the wrapping sum of the
    /// first and last byte received each iteration plus every allreduce
    /// result. The payload of `src` at iteration `it` has byte `i` equal to
    /// `(fill + src + it + i) as u8`; the allreduce sums `rank + it` and
    /// `1` over all ranks.
    pub fn expected(&self, rank: usize) -> u64 {
        let n = self.ranks as u64;
        let src = (rank + self.ranks - 1) % self.ranks;
        let mut acc = 0u64;
        for it in 0..self.iters {
            let base = self.fill as usize + src + it as usize;
            acc = acc.wrapping_add(ends(base, self.bytes_at(it)));
            if self.reduces_at(it) {
                acc = acc.wrapping_add(n * (n - 1) / 2 + n * it).wrapping_add(n);
            }
        }
        acc
    }
}

/// Operation counts that follow from the workload definition alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Analytic {
    pub ranks: u64,
    /// MPI calls issued, summed over ranks.
    pub calls: u64,
    /// Rank-to-runtime handoffs (a batch is one handoff), summed over ranks.
    pub handoffs: u64,
    /// Elements combined by reductions, summed over contributing ranks.
    pub reduce_elems: u64,
}

impl Inputs {
    pub fn analytic(&self) -> Analytic {
        match self {
            Inputs::ReproQuick => Analytic::default(),
            Inputs::IdleScale(w) => {
                let ranks = w.ranks as u64;
                Analytic {
                    ranks,
                    // compute + barrier per iteration, fused into one handoff.
                    calls: ranks * w.iters * 2,
                    handoffs: ranks * w.iters,
                    reduce_elems: 0,
                }
            }
            // Both synthetic loops batch `waitall + compute + sends + recvs`
            // into one handoff per iteration (no waitall in the first) and
            // end with a lone waitall; `halo_p2p` runs on both engines.
            Inputs::HaloP2p(w) => {
                let (calls, handoffs) = batched_loop(w.ranks, w.iters, w.neighbors);
                Analytic {
                    ranks: w.ranks as u64,
                    calls: 2 * calls,
                    handoffs: 2 * handoffs,
                    reduce_elems: 0,
                }
            }
            Inputs::Particle(w) => {
                let (calls, handoffs) =
                    batched_loop(w.ranks, w.iters, w.neighbors * w.msgs_per_peer);
                Analytic {
                    ranks: w.ranks as u64,
                    calls,
                    handoffs,
                    reduce_elems: 0,
                }
            }
            Inputs::CollRdma(w) => {
                let ranks = w.ranks as u64;
                Analytic {
                    ranks,
                    calls: ranks * w.rounds,
                    handoffs: ranks * w.rounds,
                    reduce_elems: ranks * w.rounds * w.elems as u64,
                }
            }
            Inputs::CkptRecover(w) => {
                let ranks = w.ranks as u64;
                let reduces = (0..w.iters).filter(|&it| w.reduces_at(it)).count() as u64;
                // isend + irecv + waitall per iteration, each its own
                // handoff; replayed calls after a restart are not counted.
                let calls = ranks * (3 * w.iters + reduces);
                Analytic {
                    ranks,
                    calls,
                    handoffs: calls,
                    reduce_elems: ranks * reduces * 2,
                }
            }
        }
    }
}

/// `(calls, handoffs)` of the batched exchange loop with `posts` sends and
/// as many receives per iteration.
fn batched_loop(ranks: usize, iters: u64, posts: usize) -> (u64, u64) {
    let per_rank_calls = iters * (2 + 2 * posts as u64);
    (ranks as u64 * per_rank_calls, ranks as u64 * (iters + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        for name in NAMES {
            assert_eq!(inputs(name, 7), inputs(name, 7), "{name}");
        }
        for name in NAMES.iter().filter(|&&n| n != "repro_quick") {
            let differing = (0..8)
                .filter(|&s| inputs(name, s) != inputs(name, s + 100))
                .count();
            assert!(differing >= 6, "{name}: seeds barely change the inputs");
        }
        assert!(inputs("nope", 1).is_none());
    }

    #[test]
    fn the_seed_never_changes_the_problem_size() {
        for name in NAMES {
            let a = inputs(name, 1).unwrap().analytic();
            let b = inputs(name, 99).unwrap().analytic();
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn crashes_are_in_slice_order_and_on_real_nodes() {
        let Some(Inputs::CkptRecover(w)) = inputs("ckpt_recover", 5) else {
            panic!("wrong variant");
        };
        assert_eq!(w.crashes.len(), 6);
        assert!(w.crashes.windows(2).all(|p| p[0].1 < p[1].1));
        assert!(w
            .crashes
            .iter()
            .all(|&(node, slice)| node < w.nodes && slice > 0));
    }

    #[test]
    fn ring_peers_match_the_synthetic_apps() {
        assert_eq!(ring_peers(0, 8, 4), vec![1, 7, 2, 6]);
        assert_eq!(ring_peers(7, 8, 2), vec![0, 6]);
    }
}
