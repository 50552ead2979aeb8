//! What runs, as one value, and the one path that runs it: a [`RunSpec`] is
//! an engine's full configuration plus the livelock horizon; [`run_app`]
//! builds that engine, drives one [`mpi_api::runtime::Job`] and returns a
//! [`RunReport`] that keeps the finished engine for its counters. Nothing
//! here reads the process environment: `repro --fabric`/`--coll` become a
//! default that `bench::experiments` builds its specs from.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::coll_sched::CollAlgo;
use mpi_api::RankProgram;
use mpi_api::runtime::{Engine, Job, JobLayout, RunResult};
use qsnet::{FabricKind, FabricStats};
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};
use simcore::SimDuration;
use std::fmt;
use std::str::FromStr;

/// Which MPI implementation to run on, with its full configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineCfg {
    Bcs(BcsConfig),
    Quadrics(QuadricsConfig),
}

/// One run's configuration. `Display` prints its lattice cell as one line
/// (`bcs/rdma/optimal/sched=on/coalesce=off`, `quadrics/qsnet/hw-multicast`),
/// and `FromStr` reads such a line back.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    pub engine: EngineCfg,
    /// Livelock guard: the run is declared stuck once virtual time passes
    /// this. The default hour is longer than any experiment in the suite.
    pub horizon: SimDuration,
}

const HORIZON: SimDuration = SimDuration::secs(3600);

impl From<BcsConfig> for RunSpec {
    fn from(cfg: BcsConfig) -> RunSpec {
        RunSpec { engine: EngineCfg::Bcs(cfg), horizon: HORIZON }
    }
}

impl From<QuadricsConfig> for RunSpec {
    fn from(cfg: QuadricsConfig) -> RunSpec {
        RunSpec { engine: EngineCfg::Quadrics(cfg), horizon: HORIZON }
    }
}

impl RunSpec {
    pub fn bcs() -> RunSpec {
        BcsConfig::default().into()
    }

    pub fn quadrics() -> RunSpec {
        QuadricsConfig::default().into()
    }

    /// The two axes both engines have.
    fn axes(&self) -> (FabricKind, CollAlgo) {
        match &self.engine {
            EngineCfg::Bcs(c) => (c.fabric, c.coll_algo),
            EngineCfg::Quadrics(c) => (c.fabric, c.coll_algo),
        }
    }

    fn axes_mut(&mut self) -> (&mut FabricKind, &mut CollAlgo) {
        match &mut self.engine {
            EngineCfg::Bcs(c) => (&mut c.fabric, &mut c.coll_algo),
            EngineCfg::Quadrics(c) => (&mut c.fabric, &mut c.coll_algo),
        }
    }

    pub fn fabric(&self) -> FabricKind {
        self.axes().0
    }

    pub fn coll_algo(&self) -> CollAlgo {
        self.axes().1
    }

    /// The same spec under `kind`'s timing rules (the `NetModel` constants
    /// stay as configured).
    pub fn with_fabric(mut self, kind: FabricKind) -> RunSpec {
        *self.axes_mut().0 = kind;
        self
    }

    pub fn with_coll_algo(mut self, algo: CollAlgo) -> RunSpec {
        *self.axes_mut().1 = algo;
        self
    }
}

impl fmt::Display for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (fabric, coll) = (self.fabric().name(), self.coll_algo().label());
        let on = |set: bool| if set { "on" } else { "off" };
        match &self.engine {
            EngineCfg::Bcs(c) => write!(
                f,
                "bcs/{fabric}/{coll}/sched={}/coalesce={}",
                on(c.sched_compile),
                on(c.coalesce)
            ),
            EngineCfg::Quadrics(_) => write!(f, "quadrics/{fabric}/{coll}"),
        }
    }
}

/// Why a line is not a [`RunSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunSpecError {
    /// The first field is neither `bcs` nor `quadrics`.
    UnknownEngine(String),
    /// The engine takes `expected` `/`-separated fields; the line has `found`.
    FieldCount { engine: &'static str, expected: usize, found: usize },
    /// Not a [`FabricKind::name`].
    UnknownFabric(String),
    /// Not a [`CollAlgo::label`].
    UnknownCollective(String),
    /// Not `<switch>=on` or `<switch>=off`.
    BadSwitch { switch: &'static str, found: String },
}

impl fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunSpecError::UnknownEngine(s) => write!(f, "unknown engine `{s}` (expected bcs or quadrics)"),
            RunSpecError::FieldCount { engine, expected, found } => {
                write!(f, "a {engine} spec has {expected} `/`-separated fields, not {found}")
            }
            RunSpecError::UnknownFabric(s) => write!(f, "unknown fabric `{s}` (expected qsnet or rdma)"),
            RunSpecError::UnknownCollective(s) => {
                write!(f, "unknown collective algorithm `{s}` (expected hw-multicast, binomial or optimal)")
            }
            RunSpecError::BadSwitch { switch, found } => write!(f, "`{found}` is not {switch}=on or {switch}=off"),
        }
    }
}

impl std::error::Error for RunSpecError {}

/// The inverse of `Display`: the line's engine, built from its defaults,
/// on the line's fabric and collective algorithm, with BCS-MPI's schedule
/// compilation and coalescing switched as the line says.
impl FromStr for RunSpec {
    type Err = RunSpecError;

    fn from_str(line: &str) -> Result<RunSpec, RunSpecError> {
        let fields: Vec<&str> = line.split('/').collect();
        let (engine, expected) = match fields[0] {
            "bcs" => ("bcs", 5),
            "quadrics" => ("quadrics", 3),
            other => return Err(RunSpecError::UnknownEngine(other.to_string())),
        };
        if fields.len() != expected {
            return Err(RunSpecError::FieldCount { engine, expected, found: fields.len() });
        }
        let fabric = FabricKind::from_label(fields[1]).ok_or_else(|| RunSpecError::UnknownFabric(fields[1].into()))?;
        let coll = CollAlgo::from_label(fields[2]).ok_or_else(|| RunSpecError::UnknownCollective(fields[2].into()))?;
        let spec = match engine {
            "bcs" => RunSpec::from(BcsConfig {
                sched_compile: switch(fields[3], "sched")?,
                coalesce: switch(fields[4], "coalesce")?,
                ..BcsConfig::default()
            }),
            _ => RunSpec::quadrics(),
        };
        Ok(spec.with_fabric(fabric).with_coll_algo(coll))
    }
}

/// `<name>=on` or `<name>=off`.
fn switch(field: &str, name: &'static str) -> Result<bool, RunSpecError> {
    match field.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        _ => Err(RunSpecError::BadSwitch { switch: name, found: field.to_string() }),
    }
}

/// The engine a run finished on, kept for its counters.
pub enum RanEngine {
    Bcs(BcsMpi),
    Quadrics(QuadricsMpi),
}

impl RanEngine {
    /// The BCS-MPI engine (`stats`, `sched_stats()`, `gang_switches()`, …).
    pub fn bcs(&self) -> &BcsMpi {
        match self {
            RanEngine::Bcs(e) => e,
            RanEngine::Quadrics(_) => panic!("the run was on Quadrics MPI, not BCS-MPI"),
        }
    }

    pub fn fabric_stats(&self) -> &FabricStats {
        match self {
            RanEngine::Bcs(e) => e.fabric_stats(),
            RanEngine::Quadrics(e) => e.fabric.net().stats(),
        }
    }
}

/// Result of [`run_app`]: per-rank `results`, virtual `elapsed`,
/// `finish_times`, simulator `events` and `heap_pushes`, and the finished
/// `engine`.
pub type RunReport<R> = RunResult<R, RanEngine>;

/// Execute `program` as an MPI job under `spec`. Panics, naming the spec, if
/// the job deadlocks or passes the horizon.
pub fn run_app<P: RankProgram>(spec: &RunSpec, layout: JobLayout, program: P) -> RunReport<P::Out> {
    fn drive<E: Engine, P: RankProgram>(
        spec: &RunSpec,
        engine: E,
        layout: JobLayout,
        program: &P,
        keep: fn(E) -> RanEngine,
    ) -> RunReport<P::Out> {
        let out = Job::new(engine, layout).horizon(spec.horizon).start(program);
        if let Some(why) = &out.diagnostic {
            // `RunOutcome::expect_complete`'s contract, with the
            // configuration that failed in the message.
            panic!("{spec}: {why}");
        }
        let r = out.expect_complete();
        RunResult {
            results: r.results,
            elapsed: r.elapsed,
            finish_times: r.finish_times,
            engine: keep(r.engine),
            events: r.events,
            heap_pushes: r.heap_pushes,
        }
    }
    match &spec.engine {
        EngineCfg::Bcs(cfg) => {
            drive(spec, BcsMpi::new(cfg.clone(), &layout), layout, &program, RanEngine::Bcs)
        }
        EngineCfg::Quadrics(cfg) => {
            drive(spec, QuadricsMpi::new(cfg.clone(), &layout), layout, &program, RanEngine::Quadrics)
        }
    }
}

/// Percentage slowdown of `bcs` relative to `quadrics`
/// (positive = BCS-MPI slower, the convention of the paper's Table 2).
pub fn slowdown_pct(bcs: SimDuration, quadrics: SimDuration) -> f64 {
    (bcs.as_secs_f64() / quadrics.as_secs_f64() - 1.0) * 100.0
}

/// Near-square process grid `(px, py)` with `px * py == n` and `px <= py`.
pub fn grid_dims(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut d = 1;
    while d * d <= n {
        if n % d == 0 {
            best = (d, n / d);
        }
        d += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dims_near_square() {
        assert_eq!(grid_dims(62), (2, 31));
        assert_eq!(grid_dims(64), (8, 8));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7));
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(1), (1, 1));
    }

    #[test]
    fn slowdown_sign_convention() {
        assert!(slowdown_pct(SimDuration::secs(11), SimDuration::secs(10)) > 9.9);
        assert!(slowdown_pct(SimDuration::secs(9), SimDuration::secs(10)) < 0.0);
    }
}
