//! Scenario files: a declarative description of a network, its traffic
//! classes, and the pair demand, loadable by every CLI command.

use crate::toml_lite::{parse, Document, Table, Value};
use std::fmt::Write as _;
use uba::admission::state::MAX_EXACT_RATE_BPS;
use uba::admission::{AimdParams, ChainKind, PolicyConfig, UtilizationState};
use uba::graph::{Digraph, NodeId};
use uba::obs::SloConfig;
use uba::prelude::*;
use uba::sim::{FlowSpec, SourceModel};

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
    /// Demanded pairs; with `[[route]]` sections, the routes' distinct
    /// ends, in the order they first appear.
    pub pairs: Vec<Pair>,
    /// `[[route]]` sections: a class and a simple path of the topology
    /// each. `verify`, `simulate` and `explain` use them and select no
    /// routes; empty: routes come from selection.
    pub routes: Vec<(ClassId, Path)>,
    /// `[[flow]]` sections, on `routes`. `simulate` reserves and runs them
    /// instead of its fill; empty: it fills.
    pub flows: Vec<Flows>,
    /// SLO thresholds and hysteresis (the `[slo]` section; defaults
    /// apply when absent). Consumed by `serve` and `metrics`.
    pub slo: SloConfig,
    /// Admission-policy pipeline configuration (the `[policy]` section;
    /// a utilization-only `static` chain when absent). Consumed by every
    /// command that builds an [`uba::admission::AdmissionController`],
    /// including `serve` hot-reload.
    pub policy: PolicyConfig,
}

/// One `[[flow]]` section: `count` flows of `routes[route]`'s class along
/// it, each emitting as `source` does.
#[derive(Clone, Debug, PartialEq)]
pub struct Flows {
    /// Index into [`Scenario::routes`].
    pub route: usize,
    /// Identical flows, at least one.
    pub count: u64,
    /// Their emission model.
    pub source: SourceModel,
}

/// Why a scenario cannot be loaded or a command cannot run on it.
#[derive(Debug)]
pub enum ScenarioError {
    /// Text that does not parse, a key out of range, or a command the
    /// scenario cannot serve.
    Invalid(String),
    /// `[[route]]` section `route` (from 0) is not a simple path of the
    /// topology.
    NotAPath {
        /// The section's index.
        route: usize,
        /// What is wrong with its routers.
        why: String,
    },
    /// `[[flow]]` section `flow` (from 0) asks for more flows than the
    /// admission test takes, after the sections before it.
    Refused {
        /// The section's index.
        flow: usize,
        /// Of its `count` flows, those admitted.
        admitted: u64,
        /// Flows it asks for.
        count: u64,
        /// The server that had no room for the next one.
        server: u32,
    },
    /// `[[flow]]` section `flow` (from 0) has a source that emits more
    /// than its class's bucket allows: its reservation would not cover it.
    Nonconforming {
        /// The section's index.
        flow: usize,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(msg) => write!(f, "{msg}"),
            ScenarioError::NotAPath { route, why } => {
                write!(f, "route {route} is not a path of the topology: {why}")
            }
            ScenarioError::Refused {
                flow,
                admitted,
                count,
                server,
            } => write!(
                f,
                "flow {flow}: admission takes {admitted} of its {count} flows \
                 (server {server} is full)"
            ),
            ScenarioError::Nonconforming { flow } => write!(
                f,
                "flow {flow}: its source emits more than its class's bucket allows"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn bad(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(msg.into())
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

/// A required count from a `[[section]]`: an integer in `[1, max]`.
fn count(t: &Table, section: &str, key: &str, max: u64) -> Result<u64, ScenarioError> {
    let v = num(t, key).map_err(|e| bad(format!("{section}: {e}")))?;
    if v.fract() != 0.0 || v < 1.0 || v > max as f64 {
        return Err(bad(format!(
            "{section}.{key} must be an integer in [1, {max}], got {v}"
        )));
    }
    Ok(v as u64)
}

/// A `[[route]]`'s routers as a simple path of `g`, each hop the lowest
/// edge id between its routers.
fn route_path(g: &Digraph, routers: &[Value]) -> Result<Path, String> {
    let mut nodes = Vec::with_capacity(routers.len());
    for v in routers {
        match v.as_number() {
            Some(x) if x.fract() == 0.0 && x >= 0.0 && x < g.node_count() as f64 => {
                nodes.push(NodeId(x as u32));
            }
            _ => return Err(format!("{v:?} is not a router of the topology")),
        }
    }
    let mut edges = Vec::with_capacity(nodes.len().saturating_sub(1));
    for hop in nodes.windows(2) {
        let edge = (g.out_edges(hop[0]).iter()).find(|&&e| g.dst(e) == hop[1]);
        edges.push(*edge.ok_or_else(|| format!("no link {} -> {}", hop[0].0, hop[1].0))?);
    }
    if edges.is_empty() {
        return Err("a route needs at least two routers".into());
    }
    let path = Path::from_edges(g, edges);
    if !path.is_simple() {
        return Err("a route visits a router twice".into());
    }
    Ok(path)
}

/// Parses the `[[route]]` sections: `class` (an index into the classes)
/// and `routers`, one route per class and pair.
fn parse_routes(
    tables: &[Table],
    g: &Digraph,
    classes: usize,
) -> Result<Vec<(ClassId, Path)>, ScenarioError> {
    let mut routes: Vec<(ClassId, Path)> = Vec::with_capacity(tables.len());
    for (route, t) in tables.iter().enumerate() {
        let class = integer(t, "route", "class", 0, 0, classes - 1)?;
        let routers = t
            .get("routers")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("route.routers must be an array of router ids"))?;
        let path = route_path(g, routers).map_err(|why| ScenarioError::NotAPath { route, why })?;
        let ends = |p: &Path| (p.source(), p.target());
        if let Some(twin) =
            (routes.iter()).position(|(c, p)| c.index() == class && ends(p) == ends(&path))
        {
            return Err(bad(format!(
                "route {route} repeats route {twin}'s class and pair"
            )));
        }
        routes.push((ClassId(class), path));
    }
    Ok(routes)
}

/// A non-negative, finite time in seconds.
fn instant(key: &str, v: f64) -> Result<f64, ScenarioError> {
    if v >= 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(bad(format!(
            "{key} must be non-negative and finite, got {v}"
        )))
    }
}

/// Parses one `[[flow]]`'s `source` and its parameters: `"greedy"`
/// (`burst_bits`, `rate_bps`, `start`), `"cbr"` (`period`, `offset`),
/// `"on_off"` (`peak_bps`, `on_s`, `off_s`, `start`, `stop`) or
/// `"rogue"` (`period`, `factor`), each with `packet_bits`. Whatever the
/// simulator would refuse with a panic is an error here.
fn parse_source(t: &Table) -> Result<SourceModel, ScenarioError> {
    let packet_bits = count(t, "flow", "packet_bits", 1 << 53)?;
    let pos = |key: &str| positive(&format!("flow.{key}"), num(t, key)?);
    let time = |key: &str| instant(&format!("flow.{key}"), num(t, key)?);
    Ok(match string_or(t, "source", "")? {
        "greedy" => SourceModel::GreedyOnOff {
            burst_bits: pos("burst_bits")?,
            rate_bps: pos("rate_bps")?,
            packet_bits,
            start: time("start")?,
        },
        "cbr" => SourceModel::Cbr {
            period: pos("period")?,
            packet_bits,
            offset: time("offset")?,
        },
        "on_off" => {
            let start = time("start")?;
            let stop = time("stop")?;
            if stop < start {
                return Err(bad("flow.stop must not precede flow.start"));
            }
            SourceModel::OnOff {
                peak_bps: pos("peak_bps")?,
                packet_bits,
                on_s: pos("on_s")?,
                off_s: time("off_s")?,
                start,
                stop,
            }
        }
        "rogue" => {
            let factor = pos("factor")?;
            if factor <= 1.0 {
                return Err(bad(format!("flow.factor must exceed 1, got {factor}")));
            }
            SourceModel::Rogue {
                period: pos("period")?,
                packet_bits,
                factor,
            }
        }
        other => {
            return Err(bad(format!(
                "flow.source must be one of \"greedy\", \"cbr\", \"on_off\", \"rogue\", \
                 got \"{other}\""
            )))
        }
    })
}

/// Whether every emission of `source` fits `bucket`, read off its
/// parameters: a greedy source's burst (whole packets, at least one) and
/// its rate after it; a CBR or rogue source's one packet a gap; an on/off
/// source's packets at its peak rate, when each off-phase lasts at least a
/// packet gap, so that no two phases bunch their packets. An on/off source
/// bursting above the bucket's rate is refused even where a deeper bucket
/// at its mean rate would hold it.
fn conforms(source: &SourceModel, bucket: &LeakyBucket) -> bool {
    let p = source.packet_bits() as f64;
    p <= bucket.burst
        && match *source {
            SourceModel::GreedyOnOff {
                burst_bits,
                rate_bps,
                ..
            } => (burst_bits / p).floor().max(1.0) * p <= bucket.burst && rate_bps <= bucket.rate,
            SourceModel::Cbr { period, .. } => p <= bucket.rate * period,
            SourceModel::Rogue { period, factor, .. } => p <= bucket.rate * (period / factor),
            SourceModel::OnOff {
                peak_bps, off_s, ..
            } => peak_bps <= bucket.rate && p / peak_bps <= off_s,
        }
}

/// Parses the `[[flow]]` sections: `route` (an index into the routes),
/// `count` and the source.
fn parse_flows(tables: &[Table], routes: usize) -> Result<Vec<Flows>, ScenarioError> {
    let mut flows = Vec::with_capacity(tables.len());
    for t in tables {
        if routes == 0 {
            return Err(bad("a [[flow]] needs [[route]] sections"));
        }
        flows.push(Flows {
            route: integer(t, "flow", "route", 0, 0, routes - 1)?,
            count: count(t, "flow", "count", u32::MAX as u64)?,
            source: parse_source(t)?,
        });
    }
    Ok(flows)
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

        let routes = parse_routes(doc.array("route"), &graph, classes.len())?;
        let flows = parse_flows(doc.array("flow"), routes.len())?;
        let pt = doc.table("pairs").cloned().unwrap_or_default();
        let mode = string_or(&pt, "mode", "all")?;
        let pairs = match mode {
            _ if !routes.is_empty() => {
                if doc.table("pairs").is_some() {
                    return Err(bad("[pairs] and [[route]] cannot both be given"));
                }
                let mut ends: Vec<Pair> = Vec::new();
                for (_, p) in &routes {
                    let (src, dst) = (p.nodes[0], p.nodes[p.nodes.len() - 1]);
                    if !ends.iter().any(|e| (e.src, e.dst) == (src, dst)) {
                        ends.push(Pair { src, dst });
                    }
                }
                ends
            }
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
            routes,
            flows,
            slo,
            policy,
        })
    }

    /// Per-server capacities, bits/s.
    pub fn capacities(&self) -> Vec<f64> {
        (0..self.servers.len())
            .map(|k| self.servers.capacity_at(k))
            .collect()
    }

    /// The `[[flow]]` sections as the simulator takes them, section by
    /// section, each section's `count` copies in a row.
    pub fn flow_specs(&self) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        for f in &self.flows {
            let (class, path) = &self.routes[f.route];
            let spec = FlowSpec {
                class: class.index(),
                ingress: path.nodes[0].0,
                route: path.edges.iter().map(|e| e.0).collect(),
                source: f.source,
            };
            specs.extend(std::iter::repeat_n(spec, f.count as usize));
        }
        specs
    }

    /// The indices of the pairs `class` is demanded on, in pair order:
    /// every pair, or with `[[route]]` sections, those it has a route on.
    pub fn class_pairs(&self, class: ClassId) -> Vec<usize> {
        let routed = |pair: &Pair| {
            let ends = (Some(pair.src), Some(pair.dst));
            (self.routes.iter()).any(|(c, p)| *c == class && (p.source(), p.target()) == ends)
        };
        (0..self.pairs.len())
            .filter(|&i| self.routes.is_empty() || routed(&self.pairs[i]))
            .collect()
    }

    /// [`Self::flow_specs`], once every flow's source has been found to
    /// fit its class's bucket and every flow has been reserved at the
    /// class's rate through a fresh [`UtilizationState`] at the scenario's
    /// α, in file order: a witness of flows the guarantee does not cover
    /// is an error, not a simulation.
    pub fn admit_flows(&self) -> Result<Vec<FlowSpec>, ScenarioError> {
        let state = UtilizationState::new(&self.capacities(), &self.alphas);
        for (flow, f) in self.flows.iter().enumerate() {
            let (class, path) = &self.routes[f.route];
            let bucket = &self.classes.get(*class).bucket;
            if !conforms(&f.source, bucket) {
                return Err(ScenarioError::Nonconforming { flow });
            }
            let route: Vec<u32> = path.edges.iter().map(|e| e.0).collect();
            let grant = state.try_reserve_path_up_to(&route, class.index(), bucket.rate, f.count);
            if grant.flows < f.count {
                return Err(ScenarioError::Refused {
                    flow,
                    admitted: grant.flows,
                    count: f.count,
                    server: grant.full.expect("a short grant names its full server"),
                });
            }
        }
        Ok(self.flow_specs())
    }

    /// The `[[route]]` and `[[flow]]` sections that load back as this
    /// scenario's `routes` and `flows`, floats written with `{:?}` so that
    /// they parse back to the same bits. Appended to the sections that
    /// describe the rest of the scenario, it makes a replayable witness.
    pub fn write_witness(&self) -> String {
        let mut out = String::new();
        for (class, path) in &self.routes {
            let routers: Vec<String> = path.nodes.iter().map(|n| n.0.to_string()).collect();
            writeln!(out, "[[route]]").unwrap();
            writeln!(out, "class = {}", class.index()).unwrap();
            writeln!(out, "routers = [{}]\n", routers.join(", ")).unwrap();
        }
        for f in &self.flows {
            writeln!(out, "[[flow]]\nroute = {}\ncount = {}", f.route, f.count).unwrap();
            let (source, packet_bits, params) = match f.source {
                SourceModel::GreedyOnOff {
                    burst_bits,
                    rate_bps,
                    packet_bits,
                    start,
                } => (
                    "greedy",
                    packet_bits,
                    vec![
                        ("burst_bits", burst_bits),
                        ("rate_bps", rate_bps),
                        ("start", start),
                    ],
                ),
                SourceModel::Cbr {
                    period,
                    packet_bits,
                    offset,
                } => (
                    "cbr",
                    packet_bits,
                    vec![("period", period), ("offset", offset)],
                ),
                SourceModel::OnOff {
                    peak_bps,
                    packet_bits,
                    on_s,
                    off_s,
                    start,
                    stop,
                } => (
                    "on_off",
                    packet_bits,
                    vec![
                        ("peak_bps", peak_bps),
                        ("on_s", on_s),
                        ("off_s", off_s),
                        ("start", start),
                        ("stop", stop),
                    ],
                ),
                SourceModel::Rogue {
                    period,
                    packet_bits,
                    factor,
                } => (
                    "rogue",
                    packet_bits,
                    vec![("period", period), ("factor", factor)],
                ),
            };
            writeln!(out, "source = \"{source}\"\npacket_bits = {packet_bits}").unwrap();
            for (key, v) in params {
                writeln!(out, "{key} = {v:?}").unwrap();
            }
            out.push('\n');
        }
        out
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
    use uba::graph::EdgeId;
    use uba::obs::{check, ensure, SplitMix64};

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
            assert!(e.to_string().contains(needle), "{list}: {e}");
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
            assert!(e.to_string().contains("positive integer"), "{e}");
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
            assert!(e.to_string().contains(needle), "{toml}: {e}");
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
            assert!(e.to_string().contains(needle), "{toml}: {e}");
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
            assert!(e.to_string().contains(needle), "{toml}: {e}");
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

    /// A random simple walk of 2..=5 routers over `g`'s links.
    fn random_route(g: &Digraph, rng: &mut SplitMix64) -> Option<Path> {
        let mut nodes = vec![NodeId(rng.index(g.node_count()) as u32)];
        let mut edges = Vec::new();
        for _ in 0..1 + rng.index(4) {
            let at = *nodes.last().unwrap();
            let next: Vec<_> = (g.out_edges(at).iter())
                .filter(|&&e| !nodes.contains(&g.dst(e)))
                .collect();
            if next.is_empty() {
                break;
            }
            let e = *next[rng.index(next.len())];
            edges.push(e);
            nodes.push(g.dst(e));
        }
        (!edges.is_empty()).then(|| Path::from_edges(g, edges))
    }

    /// A positive float anywhere from 1e-9 to 1e9, down to its last bit.
    fn arb_positive(rng: &mut SplitMix64) -> f64 {
        (1.0 - rng.next_f64()) * 10f64.powi(rng.index(19) as i32 - 9)
    }

    fn arb_source(rng: &mut SplitMix64) -> SourceModel {
        let packet_bits = 1 + rng.index(12_000) as u64;
        let mut at = || {
            if rng.index(4) == 0 {
                0.0
            } else {
                arb_positive(rng)
            }
        };
        let (a, b) = (at(), at());
        match rng.index(4) {
            0 => SourceModel::GreedyOnOff {
                burst_bits: arb_positive(rng),
                rate_bps: arb_positive(rng),
                packet_bits,
                start: a,
            },
            1 => SourceModel::Cbr {
                period: arb_positive(rng),
                packet_bits,
                offset: a,
            },
            2 => SourceModel::OnOff {
                peak_bps: arb_positive(rng),
                packet_bits,
                on_s: arb_positive(rng),
                off_s: b,
                start: a.min(b),
                stop: a.max(b),
            },
            _ => SourceModel::Rogue {
                period: arb_positive(rng),
                packet_bits,
                factor: 1.0 + arb_positive(rng),
            },
        }
    }

    /// The round trip: a scenario's routes and flows, written by
    /// `write_witness` after the sections that describe the rest of it
    /// and parsed back, are the same routes and the same `FlowSpec`s, bit
    /// for bit (`{:?}` of a finite float names its bits).
    #[test]
    fn a_written_witness_parses_back_to_the_same_routes_and_flows() {
        check("scenario_witness_round_trip", 64, |rng| {
            let topology = [
                "kind = \"mci\"",
                "kind = \"ring\"\nn = 7",
                "kind = \"mesh\"\nn = 5",
                "kind = \"torus\"\nw = 3\nh = 4",
                "kind = \"waxman\"\nn = 12",
            ][rng.index(5)];
            let classes = 1 + rng.index(3);
            let mut base = format!("[topology]\n{topology}\n");
            for c in 0..classes {
                base += &format!(
                    "[[class]]\nname = \"c{c}\"\nburst = 640\nrate = 32000\ndeadline = 0.1\n"
                );
            }
            let mut sc = Scenario::from_str(&base).map_err(|e| e.to_string())?;
            for _ in 0..1 + rng.index(8) {
                let class = ClassId(rng.index(classes));
                let Some(path) = random_route(&sc.graph, rng) else {
                    continue;
                };
                let ends = |p: &Path| (p.source(), p.target());
                if !(sc.routes.iter()).any(|(c, p)| *c == class && ends(p) == ends(&path)) {
                    sc.routes.push((class, path));
                }
            }
            if sc.routes.is_empty() {
                return Ok(());
            }
            sc.flows = (0..rng.index(6))
                .map(|_| Flows {
                    route: rng.index(sc.routes.len()),
                    count: 1 + rng.index(5) as u64,
                    source: arb_source(rng),
                })
                .collect();
            let text = format!("{base}\n{}", sc.write_witness());
            let back = Scenario::from_str(&text).map_err(|e| format!("{e} in\n{text}"))?;
            let edges = |routes: &[(ClassId, Path)]| -> Vec<(ClassId, Vec<EdgeId>)> {
                routes.iter().map(|(c, p)| (*c, p.edges.clone())).collect()
            };
            ensure!(
                edges(&back.routes) == edges(&sc.routes),
                "routes moved in\n{text}"
            );
            let (want, got) = (sc.flow_specs(), back.flow_specs());
            ensure!(
                format!("{got:?}") == format!("{want:?}"),
                "flows moved: {got:?} from {want:?}"
            );
            ensure!(back.write_witness() == sc.write_witness());
            Ok(())
        });
    }

    #[test]
    fn a_route_that_is_not_a_path_is_a_typed_error() {
        let ring = "[topology]\nkind = \"ring\"\nn = 6\n";
        for (routers, why) in [
            ("[0, 3]", "no link 0 -> 3"),
            ("[0]", "at least two routers"),
            ("[0, 1, 2, 1]", "twice"),
            ("[0, 1, 9]", "not a router"),
            ("[0, 1.5]", "not a router"),
        ] {
            let text = format!("{ring}[[route]]\nrouters = [1, 2]\n[[route]]\nrouters = {routers}");
            match Scenario::from_str(&text) {
                Err(ScenarioError::NotAPath { route: 1, why: w }) if w.contains(why) => {}
                other => panic!("{routers}: {other:?}"),
            }
        }
        for (text, needle) in [
            ("[[route]]\nrouters = [0, 1]\nclass = 1", "route.class"),
            (
                "[[route]]\nrouters = [0, 1]\n[[route]]\nrouters = [0, 5, 4, 3, 2, 1]",
                "repeats",
            ),
            (
                "[pairs]\nmode = \"all\"\n[[route]]\nrouters = [0, 1]",
                "[pairs]",
            ),
            ("[[flow]]\nroute = 0\ncount = 1", "needs [[route]]"),
        ] {
            let e = Scenario::from_str(&format!("{ring}{text}")).unwrap_err();
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn a_flow_admission_refuses_is_a_typed_error() {
        // 1 Mb/s at α = 0.3 leaves room for nine 32 kb/s flows per link.
        let text = "[topology]\nkind = \"ring\"\nn = 4\n[network]\ncapacity = 1e6\n\
                    [[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = 0.3\n\
                    [[route]]\nrouters = [0, 1, 2]\n[[route]]\nrouters = [1, 2]\n\
                    [[flow]]\nroute = 0\ncount = 5\nsource = \"cbr\"\npacket_bits = 640\n\
                    period = 0.02\noffset = 0.0\n\
                    [[flow]]\nroute = 1\ncount = 6\nsource = \"cbr\"\npacket_bits = 640\n\
                    period = 0.02\noffset = 0.001\n";
        let sc = Scenario::from_str(text).unwrap();
        assert_eq!(sc.pairs.len(), 2);
        let link = sc.routes[1].1.edges[0].0;
        match sc.admit_flows() {
            Err(ScenarioError::Refused {
                flow: 1,
                admitted: 4,
                count: 6,
                server,
            }) => assert_eq!(server, link),
            other => panic!("{other:?}"),
        }
        // Within the budget, the flows come back in file order.
        let fits = text.replace("count = 6", "count = 4");
        let specs = Scenario::from_str(&fits).unwrap().admit_flows().unwrap();
        assert_eq!(specs.len(), 9);
        assert_eq!(specs[8].route, vec![link]);
    }

    #[test]
    fn a_flow_its_class_bucket_cannot_hold_is_a_typed_error() {
        // VoIP's bucket: 640 bits, 32 kb/s, one 640-bit packet every 20 ms.
        let base = "[topology]\nkind = \"ring\"\nn = 4\n[network]\ncapacity = 1e6\n\
                    [[class]]\nburst = 640\nrate = 32000\ndeadline = 0.1\nalpha = 0.3\n\
                    [[route]]\nrouters = [0, 1, 2]\n\
                    [[flow]]\nroute = 0\ncount = 2\npacket_bits = 640\n";
        let greedy = |burst: f64, rate: f64| {
            format!("source = \"greedy\"\nstart = 0.0\nburst_bits = {burst:?}\nrate_bps = {rate:?}")
        };
        let cbr = |period: f64| format!("source = \"cbr\"\noffset = 0.0\nperiod = {period:?}");
        let rogue = |period: f64| format!("source = \"rogue\"\nfactor = 2.0\nperiod = {period:?}");
        let on_off = |peak: f64, off: f64| {
            format!(
                "source = \"on_off\"\non_s = 0.1\nstart = 0.0\nstop = 1.0\n\
                 peak_bps = {peak:?}\noff_s = {off:?}"
            )
        };
        for (source, fits) in [
            (greedy(640.0, 32000.0), true),
            (greedy(100.0, 16000.0), true),
            (greedy(640.0, 32000.5), false),
            (greedy(1280.0, 32000.0), false),
            (cbr(0.02), true),
            (cbr(0.019), false),
            (rogue(0.02), false),
            // Twice its nominal rate is still one packet every 20 ms.
            (rogue(0.04), true),
            (on_off(32000.0, 0.02), true),
            (on_off(64000.0, 0.1), false),
            // Off for less than a packet gap: two phases bunch their packets.
            (on_off(32000.0, 0.01), false),
        ] {
            let sc = Scenario::from_str(&format!("{base}{source}\n")).unwrap();
            match sc.admit_flows() {
                Ok(specs) if fits => assert_eq!(specs.len(), 2),
                Err(ScenarioError::Nonconforming { flow: 0 }) if !fits => {}
                other => panic!("{source}: {other:?}"),
            }
        }
    }

    #[test]
    fn route_pairs_are_distinct_and_each_class_has_its_own() {
        let sc = Scenario::from_str(
            "[topology]\nkind = \"ring\"\nn = 6\n\
             [[class]]\nname = \"a\"\nburst = 640\nrate = 32000\ndeadline = 0.1\n\
             [[class]]\nname = \"b\"\nburst = 640\nrate = 32000\ndeadline = 0.1\n\
             [[route]]\nclass = 1\nrouters = [3, 4]\n\
             [[route]]\nclass = 0\nrouters = [0, 1, 2]\n\
             [[route]]\nclass = 1\nrouters = [0, 5, 4, 3, 2]\n",
        )
        .unwrap();
        let ends: Vec<_> = sc.pairs.iter().map(|p| (p.src.0, p.dst.0)).collect();
        assert_eq!(ends, [(3, 4), (0, 2)]);
        assert_eq!(sc.class_pairs(ClassId(0)), [1]);
        assert_eq!(sc.class_pairs(ClassId(1)), [0, 1]);
        // Without routes, every class is demanded on every pair.
        let all = Scenario::from_str("[topology]\nkind = \"ring\"\nn = 3\n").unwrap();
        assert_eq!(all.class_pairs(ClassId(0)), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn unknown_topology_rejected() {
        let e = Scenario::from_str("[topology]\nkind = \"hypercube\"").unwrap_err();
        assert!(e.to_string().contains("unknown topology"));
    }
}
