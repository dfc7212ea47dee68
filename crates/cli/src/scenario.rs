//! Scenario files: a declarative description of a network, its traffic
//! classes, and the pair demand, loadable by every CLI command.

use crate::toml_lite::{parse, Document, Table, Value};
use uba::admission::state::MAX_EXACT_RATE_BPS;
use uba::admission::{AimdParams, ChainKind, PolicyConfig};
use uba::graph::{Digraph, NodeId};
use uba::obs::SloConfig;
use uba::prelude::*;

/// A fully resolved scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The router-level topology.
    pub graph: Digraph,
    /// Per-server parameters.
    pub servers: Servers,
    /// Real-time classes, priority order.
    pub classes: ClassSet,
    /// Per-class utilization shares (used by `verify`).
    pub alphas: Vec<f64>,
    /// Demanded pairs.
    pub pairs: Vec<Pair>,
    /// SLO thresholds and hysteresis (the `[slo]` section; defaults
    /// apply when absent). Consumed by `serve` and `metrics`.
    pub slo: SloConfig,
    /// Admission-policy pipeline configuration (the `[policy]` section;
    /// a utilization-only `static` chain when absent). Consumed by every
    /// command that builds an [`uba::admission::AdmissionController`],
    /// including `serve` hot-reload.
    pub policy: PolicyConfig,
}

/// Scenario loading error: parse error or semantic problem.
#[derive(Debug)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn bad(msg: impl Into<String>) -> ScenarioError {
    ScenarioError(msg.into())
}

fn num(t: &Table, key: &str) -> Result<f64, ScenarioError> {
    t.get(key)
        .and_then(Value::as_number)
        .ok_or_else(|| bad(format!("missing numeric key '{key}'")))
}

fn num_or(t: &Table, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_number()
            .ok_or_else(|| bad(format!("key '{key}' must be numeric"))),
    }
}

fn string_or<'a>(t: &'a Table, key: &str, default: &'a str) -> Result<&'a str, ScenarioError> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .ok_or_else(|| bad(format!("key '{key}' must be a string"))),
    }
}

/// The constructors behind a scenario assert positive, finite
/// parameters; a file that breaks that is an error, not a panic.
fn positive(key: &str, v: f64) -> Result<f64, ScenarioError> {
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(bad(format!("{key} must be positive and finite, got {v}")))
    }
}

/// A rate, capacity or burst in bits (per second): positive, and inside
/// the range the admission layer accounts exactly in integer millibits.
fn bits(key: &str, v: f64) -> Result<f64, ScenarioError> {
    let v = positive(key, v)?;
    if v > MAX_EXACT_RATE_BPS {
        return Err(bad(format!(
            "{key} must be at most {MAX_EXACT_RATE_BPS} (exact millibit accounting), got {v:e}"
        )));
    }
    Ok(v)
}

/// Largest topology a scenario may ask for. Configuration is at least
/// quadratic in routers (all-pairs demand, Yen candidates per pair), so
/// a size beyond this is a typo, not a workload.
const MAX_ROUTERS: usize = 1024;

/// A count from the scenario file: an integer in `[min, max]`, or an
/// error naming `section.key`. A cast alone would truncate `2.7` to 2
/// and saturate `-3` to 0.
fn integer(
    t: &Table,
    section: &str,
    key: &str,
    default: usize,
    min: usize,
    max: usize,
) -> Result<usize, ScenarioError> {
    let v = num_or(t, key, default as f64)?;
    if v.fract() != 0.0 || v < min as f64 || v > max as f64 {
        // (NaN and the infinities fail the `fract` test.)
        return Err(bad(format!(
            "{section}.{key} must be an integer in [{min}, {max}], got {v}"
        )));
    }
    Ok(v as usize)
}

/// A topology size from the scenario file: an integer in
/// `[min, MAX_ROUTERS]`. The generators assert their preconditions, so
/// everything that reaches them is checked here first.
fn size(t: &Table, key: &str, default: usize, min: usize) -> Result<usize, ScenarioError> {
    integer(t, "topology", key, default, min, MAX_ROUTERS)
}

fn build_topology(t: &Table) -> Result<Digraph, ScenarioError> {
    let kind = string_or(t, "kind", "mci")?;
    let routers = |count: usize| -> Result<(), ScenarioError> {
        if !(2..=MAX_ROUTERS).contains(&count) {
            return Err(bad(format!(
                "topology kind '{kind}' with these sizes has {count} routers; \
                 supported range is [2, {MAX_ROUTERS}]"
            )));
        }
        Ok(())
    };
    Ok(match kind {
        "mci" => uba::topology::mci(),
        "nsfnet" => uba::topology::nsfnet(),
        "ring" => uba::topology::ring(size(t, "n", 8, 3)?),
        "line" => uba::topology::line(size(t, "n", 8, 2)?),
        "star" => uba::topology::star(size(t, "n", 8, 1)?),
        "mesh" => uba::topology::full_mesh(size(t, "n", 8, 2)?),
        "grid" => {
            let (w, h) = (size(t, "w", 4, 1)?, size(t, "h", 4, 1)?);
            routers(w * h)?;
            uba::topology::grid(w, h)
        }
        "torus" => {
            let (w, h) = (size(t, "w", 4, 3)?, size(t, "h", 4, 3)?);
            routers(w * h)?;
            uba::topology::torus(w, h)
        }
        "waxman" => {
            let (alpha, beta) = (num_or(t, "alpha", 0.4)?, num_or(t, "beta", 0.5)?);
            let seed = num_or(t, "seed", 1.0)?;
            if !(alpha > 0.0 && alpha.is_finite()) {
                return Err(bad("topology.alpha must be positive"));
            }
            if !(beta > 0.0 && beta <= 1.0) {
                return Err(bad("topology.beta must be in (0, 1]"));
            }
            if !(seed >= 0.0 && seed.fract() == 0.0) {
                return Err(bad("topology.seed must be a non-negative integer"));
            }
            uba::topology::waxman(size(t, "n", 8, 2)?, alpha, beta, seed as u64)
        }
        "dumbbell" => {
            let (leaves, hops) = (size(t, "leaves", 3, 1)?, size(t, "bottleneck", 1, 1)?);
            routers(1 + hops + 2 * leaves)?;
            uba::topology::dumbbell(leaves, hops)
        }
        "fat_tree" => {
            let (cores, pods) = (size(t, "cores", 2, 1)?, size(t, "pods", 3, 2)?);
            let hosts = size(t, "hosts", 2, 0)?;
            routers(cores + pods + pods * hosts)?;
            uba::topology::fat_tree(cores, pods, hosts)
        }
        other => return Err(bad(format!("unknown topology kind '{other}'"))),
    })
}

/// Parses the optional `[slo]` section against [`SloConfig::default`]:
/// `miss_ratio`, `reject_per_sec`, `max_share`, `admit_p99_ns`,
/// `for_windows`, `clear_windows`. Window counts must be ≥ 1.
fn parse_slo(t: Option<&Table>) -> Result<SloConfig, ScenarioError> {
    let d = SloConfig::default();
    let Some(t) = t else { return Ok(d) };
    let windows = |key: &str, default: u32| -> Result<u32, ScenarioError> {
        let n = num_or(t, key, default as f64)?;
        if n < 1.0 || n.fract() != 0.0 {
            return Err(bad(format!("slo.{key} must be a positive integer")));
        }
        Ok(n as u32)
    };
    Ok(SloConfig {
        miss_ratio: num_or(t, "miss_ratio", d.miss_ratio)?,
        reject_per_sec: num_or(t, "reject_per_sec", d.reject_per_sec)?,
        max_share: num_or(t, "max_share", d.max_share)?,
        admit_p99_ns: num_or(t, "admit_p99_ns", d.admit_p99_ns)?,
        for_windows: windows("for_windows", d.for_windows)?,
        clear_windows: windows("clear_windows", d.clear_windows)?,
    })
}

/// Parses the optional `[policy]` section against
/// [`PolicyConfig::default`]: `chain` (`"static"`, `"token_bucket"`,
/// `"adaptive"`), `bucket_rate_bps`, `bucket_burst_bits`, and the AIMD
/// knobs `aimd_min_rate_bps`, `aimd_max_rate_bps`, `aimd_decrease`,
/// `aimd_increase_bps`.
fn parse_policy(t: Option<&Table>) -> Result<PolicyConfig, ScenarioError> {
    let d = PolicyConfig::default();
    let Some(t) = t else { return Ok(d) };
    let chain = ChainKind::parse(string_or(t, "chain", d.chain.as_str())?).ok_or_else(|| {
        bad("policy.chain must be one of \"static\", \"token_bucket\", \"adaptive\"")
    })?;
    let decrease = num_or(t, "aimd_decrease", d.aimd.decrease)?;
    if decrease <= 0.0 || decrease >= 1.0 || decrease.is_nan() {
        return Err(bad("policy.aimd_decrease must be in (0, 1)"));
    }
    Ok(PolicyConfig {
        chain,
        bucket_rate_bps: bits(
            "policy.bucket_rate_bps",
            num_or(t, "bucket_rate_bps", d.bucket_rate_bps)?,
        )?,
        bucket_burst_bits: bits(
            "policy.bucket_burst_bits",
            num_or(t, "bucket_burst_bits", d.bucket_burst_bits)?,
        )?,
        aimd: AimdParams {
            min_rate_bps: bits(
                "policy.aimd_min_rate_bps",
                num_or(t, "aimd_min_rate_bps", d.aimd.min_rate_bps)?,
            )?,
            max_rate_bps: bits(
                "policy.aimd_max_rate_bps",
                num_or(t, "aimd_max_rate_bps", d.aimd.max_rate_bps)?,
            )?,
            decrease,
            increase_bps: bits(
                "policy.aimd_increase_bps",
                num_or(t, "aimd_increase_bps", d.aimd.increase_bps)?,
            )?,
        },
    })
}

impl Scenario {
    /// Loads a scenario from TOML-subset text.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(input: &str) -> Result<Self, ScenarioError> {
        let doc: Document = parse(input).map_err(|e| bad(e.to_string()))?;

        let topo_table = doc.table("topology").cloned().unwrap_or_default();
        let graph = build_topology(&topo_table)?;

        let net = doc.table("network").cloned().unwrap_or_default();
        let capacity = bits("network.capacity", num_or(&net, "capacity", 100e6)?)?;
        // Absent: the topology's own largest in-degree.
        let fan_in = match net.get("fan_in") {
            None => graph.max_in_degree().max(1),
            Some(_) => integer(&net, "network", "fan_in", 1, 1, MAX_ROUTERS)?,
        };
        let servers = Servers::uniform(&graph, capacity, fan_in);

        let mut classes = ClassSet::new();
        let mut alphas = Vec::new();
        let class_tables = doc.array("class");
        if class_tables.is_empty() {
            classes.push(TrafficClass::voip());
            alphas.push(0.3);
        } else {
            for ct in class_tables {
                let name = string_or(ct, "name", "class")?.to_string();
                let burst = positive("class.burst", num(ct, "burst")?)?;
                let rate = bits("class.rate", num(ct, "rate")?)?;
                // Admission accounts rates in whole millibits/s; a rate
                // below one is under the accounting's resolution.
                if rate < 1e-3 {
                    return Err(bad(format!(
                        "class.rate must be at least 0.001 (one millibit/s), got {rate}"
                    )));
                }
                let deadline = positive("class.deadline", num(ct, "deadline")?)?;
                classes.push(TrafficClass::new(
                    name,
                    LeakyBucket::new(burst, rate),
                    deadline,
                ));
                let alpha = num_or(ct, "alpha", 0.1)?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(bad(format!("class.alpha must be in [0, 1], got {alpha}")));
                }
                alphas.push(alpha);
            }
        }

        let pt = doc.table("pairs").cloned().unwrap_or_default();
        let mode = string_or(&pt, "mode", "all")?;
        let pairs = match mode {
            "all" => {
                // A step past the largest topology's pair count picks one pair.
                let most = MAX_ROUTERS * MAX_ROUTERS;
                let step = integer(&pt, "pairs", "step", 1, 1, most)?;
                all_ordered_pairs(&graph)
                    .into_iter()
                    .step_by(step)
                    .collect()
            }
            "list" => {
                let list = pt
                    .get("list")
                    .and_then(Value::as_array)
                    .ok_or_else(|| bad("pairs.mode = \"list\" needs pairs.list"))?;
                let mut out = Vec::new();
                for v in list {
                    let s = v.as_str().ok_or_else(|| bad("pair entries are strings"))?;
                    let (a, b) = s
                        .split_once('-')
                        .ok_or_else(|| bad(format!("pair '{s}' is not 'src-dst'")))?;
                    let parse_node = |x: &str| -> Result<NodeId, ScenarioError> {
                        let id: u32 = x
                            .trim()
                            .parse()
                            .map_err(|_| bad(format!("bad router id '{x}'")))?;
                        if (id as usize) < graph.node_count() {
                            Ok(NodeId(id))
                        } else {
                            Err(bad(format!("router {id} outside topology")))
                        }
                    };
                    let (src, dst) = (parse_node(a)?, parse_node(b)?);
                    if src == dst {
                        return Err(bad(format!(
                            "pairs.list entry '{s}' joins a router to itself"
                        )));
                    }
                    out.push(Pair { src, dst });
                }
                out
            }
            other => return Err(bad(format!("unknown pairs mode '{other}'"))),
        };
        if pairs.is_empty() {
            return Err(bad("pairs selects no pair"));
        }

        let slo = parse_slo(doc.table("slo"))?;
        let policy = parse_policy(doc.table("policy"))?;

        Ok(Scenario {
            graph,
            servers,
            classes,
            alphas,
            pairs,
            slo,
            policy,
        })
    }

    /// Loads a scenario from a file path.
    pub fn from_path(path: &str) -> Result<Self, ScenarioError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read '{path}': {e}")))?;
        Self::from_str(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_give_paper_setting() {
        let s = Scenario::from_str("").unwrap();
        assert_eq!(s.graph.node_count(), 19);
        assert_eq!(s.classes.len(), 1);
        assert_eq!(s.pairs.len(), 342);
        assert_eq!(s.servers.fan_in_at(0), 6);
    }

    #[test]
    fn explicit_scenario() {
        let s = Scenario::from_str(
            r#"
            [topology]
            kind = "ring"
            n = 6
            [network]
            capacity = 1e6
            fan_in = 4
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.25
            [pairs]
            mode = "list"
            list = ["0-3", "2-5"]
            "#,
        )
        .unwrap();
        assert_eq!(s.graph.node_count(), 6);
        assert_eq!(s.servers.capacity_at(0), 1e6);
        assert_eq!(s.servers.fan_in_at(0), 4);
        assert_eq!(s.alphas, vec![0.25]);
        assert_eq!(s.pairs.len(), 2);
        assert_eq!(s.pairs[0].src, NodeId(0));
        assert_eq!(s.pairs[0].dst, NodeId(3));
    }

    #[test]
    fn pair_step_subsamples() {
        let s = Scenario::from_str("[pairs]\nmode = \"all\"\nstep = 10").unwrap();
        assert_eq!(s.pairs.len(), 35);
    }

    #[test]
    fn bad_pair_rejected() {
        for (list, needle) in [
            ("[\"0-99\"]", "outside topology"),
            ("[\"0-0\", \"0-2\"]", "pairs.list"),
            ("[]", "pairs"),
        ] {
            let e = Scenario::from_str(&format!("[pairs]\nmode = \"list\"\nlist = {list}"))
                .unwrap_err();
            assert!(e.0.contains(needle), "{list}: {e}");
        }
    }

    #[test]
    fn multiclass_scenario() {
        let s = Scenario::from_str(
            r#"
            [[class]]
            name = "voip"
            burst = 640
            rate = 32000
            deadline = 0.1
            alpha = 0.1
            [[class]]
            name = "video"
            burst = 64000
            rate = 2e6
            deadline = 0.3
            alpha = 0.2
            "#,
        )
        .unwrap();
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.alphas, vec![0.1, 0.2]);
    }

    #[test]
    fn slo_section_defaults_and_overrides() {
        let s = Scenario::from_str("").unwrap();
        assert_eq!(s.slo, SloConfig::default());
        let s = Scenario::from_str(
            r#"
            [slo]
            miss_ratio = 0.05
            for_windows = 3
            "#,
        )
        .unwrap();
        assert_eq!(s.slo.miss_ratio, 0.05);
        assert_eq!(s.slo.for_windows, 3);
        // Untouched keys keep their defaults.
        assert_eq!(s.slo.clear_windows, SloConfig::default().clear_windows);
        assert_eq!(s.slo.max_share, SloConfig::default().max_share);
    }

    #[test]
    fn slo_window_counts_must_be_positive_integers() {
        for bad in ["for_windows = 0", "clear_windows = 1.5"] {
            let e = Scenario::from_str(&format!("[slo]\n{bad}")).unwrap_err();
            assert!(e.0.contains("positive integer"), "{e}");
        }
    }

    #[test]
    fn policy_section_defaults_and_overrides() {
        let s = Scenario::from_str("").unwrap();
        assert_eq!(s.policy.chain, ChainKind::Static);
        let s = Scenario::from_str(
            r#"
            [policy]
            chain = "adaptive"
            bucket_rate_bps = 320000
            bucket_burst_bits = 64000
            aimd_decrease = 0.5
            "#,
        )
        .unwrap();
        assert_eq!(s.policy.chain, ChainKind::Adaptive);
        assert_eq!(s.policy.bucket_rate_bps, 320_000.0);
        assert_eq!(s.policy.bucket_burst_bits, 64_000.0);
        assert_eq!(s.policy.aimd.decrease, 0.5);
        // Untouched keys keep their defaults.
        let d = PolicyConfig::default();
        assert_eq!(s.policy.aimd.min_rate_bps, d.aimd.min_rate_bps);
        assert_eq!(s.policy.aimd.increase_bps, d.aimd.increase_bps);
    }

    #[test]
    fn policy_section_rejects_bad_values() {
        for (toml, needle) in [
            ("chain = \"rsvp\"", "policy.chain"),
            ("bucket_rate_bps = 0", "must be positive"),
            ("chain = \"adaptive\"\naimd_decrease = 1.0", "in (0, 1)"),
            ("aimd_min_rate_bps = -5", "must be positive"),
        ] {
            let e = Scenario::from_str(&format!("[policy]\n{toml}")).unwrap_err();
            assert!(e.0.contains(needle), "{toml}: {e}");
        }
    }

    #[test]
    fn degenerate_topology_sizes_are_errors_not_panics() {
        for (toml, needle) in [
            ("kind = \"ring\"\nn = 0", "topology.n"),
            ("kind = \"ring\"\nn = 2", "topology.n"),
            ("kind = \"line\"\nn = 1", "topology.n"),
            ("kind = \"line\"\nn = 1e12", "topology.n"),
            ("kind = \"line\"\nn = -4", "topology.n"),
            ("kind = \"line\"\nn = 4.5", "topology.n"),
            ("kind = \"line\"\nn = inf", "topology.n"),
            ("kind = \"line\"\nn = nan", "topology.n"),
            ("kind = \"star\"\nn = 0", "topology.n"),
            ("kind = \"mesh\"\nn = 1", "topology.n"),
            ("kind = \"grid\"\nw = 1\nh = 1", "1 routers"),
            ("kind = \"grid\"\nw = 0", "topology.w"),
            ("kind = \"grid\"\nw = 1000\nh = 1000", "1000000 routers"),
            ("kind = \"torus\"\nw = 2\nh = 5", "topology.w"),
            ("kind = \"torus\"\nw = 5\nh = 2", "topology.h"),
            ("kind = \"waxman\"\nn = 1", "topology.n"),
            ("kind = \"waxman\"\nalpha = 0", "topology.alpha"),
            ("kind = \"waxman\"\nbeta = 1.5", "topology.beta"),
            ("kind = \"waxman\"\nseed = -1", "topology.seed"),
            ("kind = \"dumbbell\"\nleaves = 0", "topology.leaves"),
            ("kind = \"dumbbell\"\nbottleneck = 0", "topology.bottleneck"),
            ("kind = \"dumbbell\"\nleaves = 600", "routers"),
            ("kind = \"fat_tree\"\ncores = 0", "topology.cores"),
            ("kind = \"fat_tree\"\npods = 1", "topology.pods"),
            ("kind = \"fat_tree\"\nhosts = -1", "topology.hosts"),
            ("kind = \"fat_tree\"\npods = 100\nhosts = 100", "routers"),
        ] {
            let e = Scenario::from_str(&format!("[topology]\n{toml}")).unwrap_err();
            assert!(e.0.contains(needle), "{toml}: {e}");
        }
        for (toml, needle) in [
            ("[network]\ncapacity = 0", "network.capacity"),
            ("[network]\ncapacity = inf", "network.capacity"),
            (
                "[[class]]\nburst = 0\nrate = 32000\ndeadline = 0.1",
                "class.burst",
            ),
            (
                "[[class]]\nburst = 640\nrate = -1\ndeadline = 0.1",
                "class.rate",
            ),
            (
                "[[class]]\nburst = 640\nrate = 32000\ndeadline = nan",
                "class.deadline",
            ),
            ("[network]\ncapacity = 1e300", "network.capacity"),
            (
                "[[class]]\nburst = 640\nrate = 1e20\ndeadline = 0.1",
                "class.rate",
            ),
            (
                "[[class]]\nburst = 640\nrate = 0.0004\ndeadline = 0.1",
                "class.rate",
            ),
            (
                "[[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = 1.5",
                "class.alpha",
            ),
            (
                "[[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = -0.2",
                "class.alpha",
            ),
            (
                "[[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = nan",
                "class.alpha",
            ),
            (
                "[policy]\nchain = \"token_bucket\"\nbucket_rate_bps = 1e20",
                "policy.bucket_rate_bps",
            ),
        ] {
            let e = Scenario::from_str(toml).unwrap_err();
            assert!(e.0.contains(needle), "{toml}: {e}");
        }
        // The smallest instance of every family still builds.
        for (toml, nodes) in [
            ("kind = \"ring\"\nn = 3", 3),
            ("kind = \"line\"\nn = 2", 2),
            ("kind = \"star\"\nn = 1", 2),
            ("kind = \"mesh\"\nn = 2", 2),
            ("kind = \"grid\"\nw = 1\nh = 2", 2),
            ("kind = \"torus\"\nw = 3\nh = 3", 9),
            ("kind = \"waxman\"\nn = 2", 2),
            ("kind = \"dumbbell\"\nleaves = 1\nbottleneck = 1", 4),
            ("kind = \"fat_tree\"\ncores = 1\npods = 2\nhosts = 0", 3),
        ] {
            let s = Scenario::from_str(&format!("[topology]\n{toml}")).unwrap();
            assert_eq!(s.graph.node_count(), nodes, "{toml}");
        }
    }

    #[test]
    fn unknown_topology_rejected() {
        let e = Scenario::from_str("[topology]\nkind = \"hypercube\"").unwrap_err();
        assert!(e.0.contains("unknown topology"));
    }
}
