//! Network timing models.
//!
//! A [`NetModel`] packages every timing constant the fabric needs. The five
//! presets correspond to the rows of the paper's Table 1; the QsNet preset is
//! the one used for all application experiments (it is the hardware the paper
//! measured on), tuned so that small-message MPI ping-pong lands in the
//! ~5 µs range of a Quadrics Elan3 and large-message bandwidth near the
//! ~320 MB/s PCI-bound Elan3 figure.

use simcore::SimDuration;

/// How the network realizes ordered multicast (`Xfer-And-Signal` to a set).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum McastImpl {
    /// Switch-replicated hardware multicast (QsNet, BlueGene/L): one
    /// injection, all destinations receive concurrently at `bw_per_dest`.
    Hardware {
        /// Sustained bytes/second delivered to *each* destination.
        bw_per_dest: f64,
    },
    /// Emulated by a software binomial tree (Ethernet, Myrinet, InfiniBand):
    /// `ceil(log2 n)` store-and-forward stages.
    SoftwareTree {
        /// Per-stage forwarding latency.
        stage: SimDuration,
        /// Effective bytes/second seen by each destination once the tree is
        /// saturated.
        bw_per_dest: f64,
    },
}

/// How the network realizes the global conditional (`Compare-And-Write`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CondImpl {
    /// Hardware network conditional (QsNet network conditionals, BlueGene/L
    /// global interrupt/combining tree): near-constant latency plus a small
    /// per-tree-level term.
    Hardware {
        base: SimDuration,
        per_level: SimDuration,
    },
    /// Software reduction tree: `ceil(log2 n)` round-trip stages.
    SoftwareTree { stage: SimDuration },
}

/// Complete timing model of one interconnect. All fields are scalar
/// constants, so the model is `Copy` — pass it by value or borrow it, but
/// never `.clone()` it per measurement point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetModel {
    pub name: &'static str,
    /// Point-to-point wire latency excluding switch hops (first-bit).
    pub base_latency: SimDuration,
    /// Extra latency per switch hop.
    pub per_hop: SimDuration,
    /// Unicast link bandwidth, bytes/second (PCI/DMA bound).
    pub link_bw: f64,
    /// Host CPU cost to hand a message/descriptor to the NIC.
    pub host_overhead: SimDuration,
    /// NIC thread cost to process one descriptor (match, queue, program DMA).
    pub nic_op: SimDuration,
    pub mcast: McastImpl,
    pub cond: CondImpl,
}

const MB: f64 = 1e6; // the paper's MB/s are decimal megabytes

impl NetModel {
    /// Quadrics QsNet (Elan3 / Elite) — the paper's experimental platform.
    pub fn qsnet() -> NetModel {
        NetModel {
            name: "QsNet",
            base_latency: SimDuration::nanos(1_600),
            per_hop: SimDuration::nanos(35), // Elite cut-through per stage
            link_bw: 320.0 * MB,
            host_overhead: SimDuration::nanos(700),
            nic_op: SimDuration::nanos(900),
            mcast: McastImpl::Hardware {
                bw_per_dest: 320.0 * MB,
            },
            cond: CondImpl::Hardware {
                base: SimDuration::micros(4),
                per_level: SimDuration::nanos(700),
            },
        }
    }

    /// Gigabit Ethernet with OS-bypass messaging (EMP-class).
    pub fn gigabit_ethernet() -> NetModel {
        NetModel {
            name: "Gigabit Ethernet",
            base_latency: SimDuration::micros(18),
            per_hop: SimDuration::micros(4),
            link_bw: 110.0 * MB,
            host_overhead: SimDuration::micros(3),
            nic_op: SimDuration::micros(2),
            // No usable multicast for bulk data in the paper ("not
            // available"); model a slow software tree anyway so the code path
            // is exercised.
            mcast: McastImpl::SoftwareTree {
                stage: SimDuration::micros(23),
                bw_per_dest: 8.0 * MB,
            },
            cond: CondImpl::SoftwareTree {
                stage: SimDuration::micros(46),
            },
        }
    }

    /// Myrinet (GM, NIC-assisted multicast per Buntinas et al.).
    pub fn myrinet() -> NetModel {
        NetModel {
            name: "Myrinet",
            base_latency: SimDuration::micros(7),
            per_hop: SimDuration::nanos(550),
            link_bw: 245.0 * MB,
            host_overhead: SimDuration::micros(1),
            nic_op: SimDuration::micros(1),
            mcast: McastImpl::SoftwareTree {
                stage: SimDuration::micros(10),
                bw_per_dest: 15.0 * MB,
            },
            cond: CondImpl::SoftwareTree {
                stage: SimDuration::micros(20),
            },
        }
    }

    /// InfiniBand 4x (2003-era VAPI).
    pub fn infiniband() -> NetModel {
        NetModel {
            name: "InfiniBand",
            base_latency: SimDuration::micros(5),
            per_hop: SimDuration::nanos(200),
            link_bw: 820.0 * MB,
            host_overhead: SimDuration::micros(1),
            nic_op: SimDuration::nanos(800),
            mcast: McastImpl::SoftwareTree {
                stage: SimDuration::micros(8),
                bw_per_dest: 40.0 * MB,
            },
            cond: CondImpl::SoftwareTree {
                stage: SimDuration::micros(20),
            },
        }
    }

    /// BlueGene/L collective (tree) network — the paper's forward-looking row.
    pub fn bluegene_l() -> NetModel {
        NetModel {
            name: "BlueGene/L",
            base_latency: SimDuration::nanos(1_300),
            per_hop: SimDuration::nanos(100),
            link_bw: 700.0 * MB,
            host_overhead: SimDuration::nanos(500),
            nic_op: SimDuration::nanos(500),
            mcast: McastImpl::Hardware {
                bw_per_dest: 700.0 * MB,
            },
            cond: CondImpl::Hardware {
                base: SimDuration::nanos(1_200),
                per_level: SimDuration::nanos(50),
            },
        }
    }

    /// All Table 1 presets, in the paper's row order.
    pub fn table1_models() -> Vec<NetModel> {
        vec![
            NetModel::gigabit_ethernet(),
            NetModel::myrinet(),
            NetModel::infiniband(),
            NetModel::qsnet(),
            NetModel::bluegene_l(),
        ]
    }

    /// Serialization time of `bytes` on the unicast link.
    #[inline]
    pub fn tx_time(&self, bytes: u64) -> SimDuration {
        SimDuration::nanos((bytes as f64 * 1e9 / self.link_bw).ceil() as u64)
    }

    /// Serialization time of `bytes` through the multicast path.
    #[inline]
    pub fn mcast_tx_time(&self, bytes: u64) -> SimDuration {
        let bw = match self.mcast {
            McastImpl::Hardware { bw_per_dest } => bw_per_dest,
            McastImpl::SoftwareTree { bw_per_dest, .. } => bw_per_dest,
        };
        SimDuration::nanos((bytes as f64 * 1e9 / bw).ceil() as u64)
    }

    /// First-bit latency of a unicast over `hops` switch stages.
    #[inline]
    pub fn unicast_latency(&self, hops: u32) -> SimDuration {
        self.base_latency + self.per_hop * hops as u64
    }

    /// First-bit latency of a multicast reaching `n` destinations through a
    /// tree of the given height.
    pub fn mcast_latency(&self, n: usize, tree_levels: u32) -> SimDuration {
        match self.mcast {
            McastImpl::Hardware { .. } => {
                // Climb to the root once, fan out: diameter hops.
                self.base_latency + self.per_hop * (2 * tree_levels) as u64
            }
            McastImpl::SoftwareTree { stage, .. } => {
                self.base_latency + stage * log2_ceil(n) as u64
            }
        }
    }

    /// Completion latency of a `Compare-And-Write` spanning `n` nodes.
    pub fn cond_latency(&self, n: usize, tree_levels: u32) -> SimDuration {
        match self.cond {
            CondImpl::Hardware { base, per_level } => base + per_level * tree_levels as u64,
            CondImpl::SoftwareTree { stage } => stage * log2_ceil(n) as u64,
        }
    }
}

/// `ceil(log2(n))`, with `log2_ceil(1) == 1` — even a self-test costs one
/// software stage.
pub fn log2_ceil(n: usize) -> u32 {
    debug_assert!(n > 0);
    if n <= 2 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn qsnet_conditional_stays_under_10us_at_1024_nodes() {
        // Table 1 row: QsNet Compare-And-Write "< 10 us".
        let m = NetModel::qsnet();
        let levels = crate::topology::Topology::fat_tree(1024).levels();
        let lat = m.cond_latency(1024, levels);
        assert!(lat < SimDuration::micros(10), "qsnet C&W {lat}");
    }

    #[test]
    fn bluegene_conditional_under_2us() {
        let m = NetModel::bluegene_l();
        let lat = m.cond_latency(1024, 5);
        assert!(lat < SimDuration::micros(2), "bgl C&W {lat}");
    }

    #[test]
    fn software_conditionals_scale_logarithmically() {
        let gige = NetModel::gigabit_ethernet();
        let lat64 = gige.cond_latency(64, 3);
        let lat128 = gige.cond_latency(128, 4);
        assert_eq!(lat64, SimDuration::micros(46 * 6));
        assert_eq!(lat128 - lat64, SimDuration::micros(46));
        let myri = NetModel::myrinet();
        assert_eq!(myri.cond_latency(256, 4), SimDuration::micros(20 * 8));
    }

    #[test]
    fn tx_time_rounds_up() {
        let m = NetModel::qsnet();
        // 320 bytes at 320 MB/s = 1 us.
        assert_eq!(m.tx_time(320), SimDuration::micros(1));
        assert_eq!(m.tx_time(0), SimDuration::ZERO);
        assert!(m.tx_time(1) > SimDuration::ZERO);
    }

    #[test]
    fn hardware_mcast_latency_independent_of_fanout() {
        let m = NetModel::qsnet();
        let l_small = m.mcast_latency(4, 3);
        let l_big = m.mcast_latency(1000, 3);
        assert_eq!(l_small, l_big);
        // Software tree grows with fan-out.
        let s = NetModel::myrinet();
        assert!(s.mcast_latency(64, 3) < s.mcast_latency(512, 3));
    }
}
