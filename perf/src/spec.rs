//! The metric names this program emits, and the reader of `BENCHMARK.json`.
//! A test holds the two sets equal.

use crate::json::Json;
use std::path::Path;

/// `(name, unit)` of the end-to-end metrics, all lower-is-better.
/// `error_rate` is not among them: a metric that is 0 on every healthy run
/// cannot carry a relative bound, so it travels as `failed`/`attempted` in
/// each result and `compare` checks it separately.
pub const END_TO_END: [(&str, &str); 3] =
    [("host_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Repeats bit for bit on the same inputs (a count or a virtual time);
    /// `compare` requires equality.
    pub exact: bool,
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        exact: true,
    }
}

/// A virtual time or a ratio of counts: not a count, but as exact as one.
const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: true,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        exact: false,
    }
}

/// Every per-layer metric a traced run reports. A workload that cannot
/// expose one (no BCS engine in `repro_quick`, no fault driver outside
/// `ckpt_recover`) reports it as 0.
pub const PER_LAYER: [Layer; 81] = [
    count("harness.reps"),
    timed("harness.host_s_iqr", "s"),
    timed("harness.wall_s", "s"),
    timed("harness.slowdown", "ratio"),
    timed("harness.cpu_s", "s"),
    timed("harness.runq_wait_s", "s"),
    timed("harness.trace_overhead_pct", "%"),
    count("simcore.events"),
    exact("simcore.virt_ns", "ns"),
    timed("simcore.events_per_s", "1/s"),
    timed("simcore.ns_per_event", "ns"),
    timed("simcore.probe_ns_per_event", "ns"),
    timed("simcore.est_share", "share"),
    count("mpi-api.ranks"),
    count("mpi-api.calls"),
    count("mpi-api.handoffs"),
    timed("mpi-api.probe_ns_per_handoff", "ns"),
    timed("mpi-api.probe_round_schedule_us", "us"),
    timed("mpi-api.est_share", "share"),
    count("core.slices"),
    count("core.descriptors"),
    count("core.matches"),
    count("core.chunks"),
    count("core.p2p_bytes"),
    count("core.collectives"),
    count("core.overruns"),
    count("core.sched_compiles"),
    count("core.sched_replays"),
    count("core.sched_fallbacks"),
    count("core.sched_invalidations"),
    exact("core.replays_per_slice", "ratio"),
    count("core.ckpt_images"),
    count("core.ckpt_payload_bytes"),
    timed("core.run_s", "s"),
    timed("core.probe_ns_per_match", "ns"),
    timed("core.probe_ns_per_replay_msg", "ns"),
    timed("core.probe_ckpt_capture_ns", "ns"),
    timed("core.match_est_share", "share"),
    count("bcs-core.retries"),
    timed("bcs-core.probe_ns_per_xfer", "ns"),
    timed("bcs-core.probe_ns_per_caw", "ns"),
    count("fabric.puts"),
    count("fabric.gets"),
    count("fabric.multicasts"),
    count("fabric.conditionals"),
    count("fabric.bytes"),
    count("fabric.drops"),
    timed("fabric.est_share", "share"),
    timed("qsnet.probe_ns_per_get", "ns"),
    timed("qsnet.probe_ns_per_multicast", "ns"),
    timed("rdmanet.probe_ns_per_get", "ns"),
    timed("rdmanet.probe_ns_per_multicast", "ns"),
    timed("quadrics-mpi.run_s", "s"),
    count("quadrics-mpi.events"),
    count("softfloat.reduce_elems"),
    timed("softfloat.probe_ns_per_add", "ns"),
    timed("softfloat.est_share", "share"),
    count("faultsim.restarts"),
    count("faultsim.detections"),
    exact("faultsim.rework_virt_ns", "ns"),
    timed("bench.exp_s.table1", "s"),
    timed("bench.exp_s.fig2", "s"),
    timed("bench.exp_s.fig8a", "s"),
    timed("bench.exp_s.fig8b", "s"),
    timed("bench.exp_s.fig8c", "s"),
    timed("bench.exp_s.fig8d", "s"),
    timed("bench.exp_s.fig9", "s"),
    timed("bench.exp_s.fig10", "s"),
    timed("bench.exp_s.fig11a", "s"),
    timed("bench.exp_s.fig11b", "s"),
    timed("bench.exp_s.ablation-slice", "s"),
    timed("bench.exp_s.ablation-reduce", "s"),
    timed("bench.exp_s.ablation-noise", "s"),
    timed("bench.exp_s.ablation-chunk", "s"),
    timed("bench.exp_s.ablation-multijob", "s"),
    timed("bench.exp_s.ablation-fault", "s"),
    timed("bench.exp_s.ablation-schedule", "s"),
    timed("bench.exp_s.storm-launch", "s"),
    timed("bench.exp_s.scale", "s"),
    timed("bench.exp_s.fabric-matrix", "s"),
    timed("unattributed_share", "share"),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// What `compare` needs from `BENCHMARK.json`.
pub struct Spec {
    pub workloads: Vec<String>,
    /// `(name, bound)` of each end-to-end metric; all are lower-is-better.
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<String>,
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{key}` is not a list"))?
                .iter()
                .collect())
        };
        let name_of = |entry: &Json| -> Result<String, String> {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "an entry has no `name`".to_string())
        };
        let mut end_to_end = Vec::new();
        for entry in names("end_to_end")? {
            let name = name_of(entry)?;
            let bound = entry
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}` has no `bound`"))?;
            if entry.get("better").and_then(Json::as_str) != Some("lower") {
                return Err(format!(
                    "`{name}`: only lower-is-better end-to-end metrics are supported"
                ));
            }
            end_to_end.push((name, bound));
        }
        Ok(Spec {
            workloads: names("workloads")?
                .into_iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
            end_to_end,
            per_layer: names("per_layer")?
                .into_iter()
                .map(name_of)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn committed() -> Spec {
        Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn emitted_names_equal_declared_names() {
        let spec = committed();
        assert_eq!(spec.workloads, workloads::NAMES);
        let declared: Vec<&str> = spec.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        let emitted: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared, emitted);
        let emitted: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        assert_eq!(spec.per_layer, emitted);
    }

    #[test]
    fn declared_units_equal_emitted_units() {
        let doc = Json::parse(
            &std::fs::read_to_string(
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
            )
            .unwrap(),
        )
        .unwrap();
        for (key, emitted) in [
            ("end_to_end", END_TO_END.to_vec()),
            (
                "per_layer",
                PER_LAYER.iter().map(|l| (l.name, l.unit)).collect(),
            ),
        ] {
            for (entry, (name, unit)) in doc.get(key).unwrap().as_arr().unwrap().iter().zip(emitted)
            {
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(unit), "{name}");
            }
        }
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = workloads::NAMES.to_vec();
        all.extend(END_TO_END.iter().map(|(n, _)| *n));
        all.extend(PER_LAYER.iter().map(|l| l.name));
        for name in &all {
            assert!(well_formed(name), "{name}");
        }
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_repro_experiment_has_its_metric() {
        for exp in workloads::REPRO_EXPERIMENTS {
            assert!(layer(&format!("bench.exp_s.{exp}")).is_some(), "{exp}");
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        let spec = committed();
        assert!(spec.end_to_end.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = spec
            .end_to_end
            .iter()
            .find(|(n, _)| n == "setup_s")
            .unwrap()
            .1;
        assert!(
            spec.end_to_end.iter().all(|(_, b)| *b <= setup),
            "setup_s has the largest bound"
        );
    }
}
