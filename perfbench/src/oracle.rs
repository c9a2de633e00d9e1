//! The correctness oracle every op is checked against.
//!
//! `expected.json` (embedded at build time) stores, per cell or serve
//! key, the optimum a search must return — its cost bit for bit and a
//! digest of its configuration ids — and, for frontier keys, every Pareto
//! point. Each stored optimum was checked when it was recorded: its cost
//! equals `CostTables::evaluate_ids` of its ids and is no worse than data
//! parallelism on the same tables. `perfbench --record <file>` writes a
//! fresh file after the same checks.

use pase_core::FrontierPoint;
use pase_cost::CostTables;
use pase_graph::Graph;
use pase_obs::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const EXPECTED: &str = include_str!("../expected.json");

/// The DP sums costs in its own order; `evaluate_ids` adds them flat, so
/// the two agree to rounding, not bit for bit.
const EVAL_TOLERANCE: f64 = 1e-9;

#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    pub cost: f64,
    pub memory: u64,
    pub ids: u64,
}

/// A stored answer: the (min-time) optimum and, for frontier keys, the
/// whole Pareto frontier in increasing cost order.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub cost: f64,
    pub ids: u64,
    pub points: Vec<Point>,
}

impl Answer {
    /// The point a memory budget selects: the fastest that fits.
    pub fn pick(&self, budget: u64) -> Option<&Point> {
        self.points.iter().find(|p| p.memory <= budget)
    }

    pub fn min_memory(&self) -> u64 {
        self.points.last().map_or(0, |p| p.memory)
    }

    pub fn top_memory(&self) -> u64 {
        self.points.first().map_or(0, |p| p.memory)
    }
}

/// FNV-1a digest of a configuration-id vector.
pub fn digest(ids: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &id in ids {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ ids.len() as u64
}

pub fn points_of(frontier: &[FrontierPoint]) -> Vec<Point> {
    frontier
        .iter()
        .map(|p| Point {
            cost: p.cost,
            memory: p.memory_bytes,
            ids: digest(&p.config_ids),
        })
        .collect()
}

pub struct Expected(BTreeMap<String, Answer>);

impl Expected {
    pub fn load() -> Result<Self, String> {
        let v = json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
        let Some(json::Value::Object(entries)) = v.get("answers") else {
            return Err("expected.json: no \"answers\" object".into());
        };
        let mut map = BTreeMap::new();
        for (label, a) in entries {
            let bad = || format!("expected.json: malformed entry {label}");
            let hex = |v: Option<&json::Value>| {
                v.and_then(json::Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
            };
            let cost = a
                .get("cost")
                .and_then(json::Value::as_f64)
                .ok_or_else(bad)?;
            let ids = hex(a.get("ids")).ok_or_else(bad)?;
            let mut points = Vec::new();
            for p in a
                .get("points")
                .and_then(json::Value::as_array)
                .unwrap_or(&[])
            {
                let f = p.as_array().filter(|f| f.len() == 3).ok_or_else(bad)?;
                points.push(Point {
                    cost: f[0].as_f64().ok_or_else(bad)?,
                    memory: f[1].as_u64().ok_or_else(bad)?,
                    ids: hex(Some(&f[2])).ok_or_else(bad)?,
                });
            }
            map.insert(label.clone(), Answer { cost, ids, points });
        }
        Ok(Expected(map))
    }

    pub fn get(&self, label: &str) -> Result<&Answer, String> {
        self.0
            .get(label)
            .ok_or_else(|| format!("expected.json has no answer for {label}"))
    }
}

/// Collects answers for `--record`, checking each as it is added.
pub struct Recorder(BTreeMap<String, Answer>);

impl Recorder {
    pub fn new() -> Self {
        Recorder(BTreeMap::new())
    }

    /// Record a min-time answer after the same checks every op gets.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        label: String,
        graph: &Graph,
        tables: &CostTables,
        p: u32,
        cost: f64,
        ids: &[u16],
        points: Vec<Point>,
    ) -> Result<(), String> {
        check_against_tables(graph, tables, p, cost, ids)?;
        let answer = Answer {
            cost,
            ids: digest(ids),
            points,
        };
        if let Some(old) = self.0.get(&label) {
            if *old != answer {
                return Err(format!("{label}: two searches disagree"));
            }
        }
        self.0.insert(label, answer);
        Ok(())
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"answers\": {\n");
        for (i, (label, a)) in self.0.iter().enumerate() {
            let sep = if i + 1 < self.0.len() { "," } else { "" };
            let _ = write!(
                out,
                "  \"{label}\": {{\"cost\": {}, \"ids\": \"{:016x}\"",
                json::number(a.cost),
                a.ids
            );
            if !a.points.is_empty() {
                out.push_str(", \"points\": [");
                for (j, p) in a.points.iter().enumerate() {
                    let sep = if j > 0 { ", " } else { "" };
                    let _ = write!(
                        out,
                        "{sep}[{}, {}, \"{:016x}\"]",
                        json::number(p.cost),
                        p.memory,
                        p.ids
                    );
                }
                out.push(']');
            }
            let _ = writeln!(out, "}}{sep}");
        }
        out.push_str("}}\n");
        out
    }
}

/// The two table-based checks: the returned cost is what the tables say
/// the returned ids cost, and it is no worse than data parallelism.
pub fn check_against_tables(
    graph: &Graph,
    tables: &CostTables,
    p: u32,
    cost: f64,
    ids: &[u16],
) -> Result<(), String> {
    let eval = tables.evaluate_ids(graph, ids);
    if (eval - cost).abs() > EVAL_TOLERANCE * cost.abs() {
        return Err(format!("cost {cost:e} but its ids evaluate to {eval:e}"));
    }
    let dp = pase_baselines::data_parallel(graph, p);
    let dp_ids = tables
        .strategy_to_ids(&dp)
        .ok_or("data parallelism is not in the configuration space")?;
    let dp_cost = tables.evaluate_ids(graph, &dp_ids);
    if cost > dp_cost * (1.0 + EVAL_TOLERANCE) {
        return Err(format!(
            "cost {cost:e} is worse than data parallelism's {dp_cost:e}"
        ));
    }
    Ok(())
}

/// A min-time answer equals the stored one bit for bit.
pub fn check_optimum(want: &Answer, cost: f64, ids: u64) -> Result<(), String> {
    if cost.to_bits() != want.cost.to_bits() || ids != want.ids {
        return Err(format!(
            "optimum {cost:e} (ids {ids:016x}) differs from the expected {:e} ({:016x})",
            want.cost, want.ids
        ));
    }
    Ok(())
}

/// A frontier is sorted by time up and memory strictly down, and its
/// min-time cost is the scalar optimum's bit for bit.
pub fn check_frontier(scalar: &Answer, points: &[Point]) -> Result<(), String> {
    let first = points.first().ok_or("empty frontier")?;
    for w in points.windows(2) {
        if !(w[0].cost <= w[1].cost && w[0].memory > w[1].memory) {
            return Err("frontier is not sorted (time up, memory down)".into());
        }
    }
    if first.cost.to_bits() != scalar.cost.to_bits() {
        return Err(format!(
            "min-time point {:e} differs from the scalar optimum {:e}",
            first.cost, scalar.cost
        ));
    }
    Ok(())
}

/// A budget answer: the expected frontier's pick for `budget`, or
/// infeasible with the expected memory floor above the budget.
pub fn check_pick(
    want: &Answer,
    budget: u64,
    got: Option<(f64, u64, u64)>,
    min_memory: u64,
) -> Result<(), String> {
    match (want.pick(budget), got) {
        (Some(w), Some((cost, memory, ids))) => {
            if memory > budget {
                return Err(format!("pick uses {memory} B over the budget {budget} B"));
            }
            if cost.to_bits() != w.cost.to_bits() || memory != w.memory || ids != w.ids {
                return Err(format!(
                    "budget {budget} picked ({cost:e}, {memory}) instead of ({:e}, {})",
                    w.cost, w.memory
                ));
            }
            Ok(())
        }
        (None, None) if min_memory == want.min_memory() && min_memory > budget => Ok(()),
        (None, None) => Err(format!(
            "infeasible with floor {min_memory}, expected floor {} above budget {budget}",
            want.min_memory()
        )),
        (Some(_), None) => Err(format!(
            "budget {budget} answered infeasible but a point fits"
        )),
        (None, Some(_)) => Err(format!("budget {budget} picked a point though none fits")),
    }
}
