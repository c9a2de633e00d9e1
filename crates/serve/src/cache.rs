//! Content-addressed strategy cache.
//!
//! A strategy search is a pure function of (graph structure, iteration
//! spaces, [`ConfigRule`], [`DeviceMesh`], prune settings) — node *names*,
//! mesh/axis names, and trace/parallelism knobs do not influence the
//! optimum. The cache key is therefore a canonical 64-bit FNV-1a hash
//! over exactly those inputs ([`strategy_cache_key`]); two requests that
//! differ only in naming or scheduling share an entry, while any change
//! to a tensor extent, a mesh axis (size, α, bandwidth, FLOPS), the
//! device count, or the prune ε produces a different key — distinct mesh
//! shapes over the same rates are distinct searches.
//!
//! [`StrategyCache`] keeps entries in a bounded in-memory LRU and can
//! additionally persist them as one JSON file per key under a cache
//! directory. On-disk entries carry the workspace-wide
//! [`pase_core::SCHEMA_VERSION`] and are rejected (treated as misses) when
//! the version does not match.

use pase_core::{Error, FrontierPoint, SCHEMA_VERSION};
use pase_cost::{ConfigRule, DeviceMesh};
use pase_graph::{Graph, OpKind};
use pase_obs::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit, fed with a canonical byte serialization. Deterministic
/// across runs and platforms (everything is hashed in little-endian /
/// IEEE-754 bit form), unlike `DefaultHasher`, whose seeds vary per
/// process — a content *address* must be stable enough to name disk files.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Tag + payload, so adjacent optional fields cannot alias.
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
            None => self.u64(0),
        }
    }
}

/// Canonical hash of everything a search's result depends on. See the
/// module docs for what is included; notably node names are *not*.
///
/// `frontier` distinguishes frontier-family entries (which carry the full
/// Pareto set) from scalar ones. The request's `max_memory_bytes` budget is
/// deliberately **not** hashed: a cached frontier answers every budget
/// variant of the same search by point selection, so all budgets share one
/// entry and one DP fill.
///
/// The key is the composition [`finish_key`]`(`[`graph_digest`]`(graph), ..)`:
/// the graph section is hashed first, so a caller that has already
/// digested a graph (the serve path memoizes digests per zoo request)
/// derives bit-identical keys without rebuilding or re-hashing it.
pub fn strategy_cache_key(
    graph: &Graph,
    rule: &ConfigRule,
    machine: &DeviceMesh,
    prune_epsilon: Option<f64>,
    frontier: bool,
) -> u64 {
    finish_key(graph_digest(graph), rule, machine, prune_epsilon, frontier)
}

/// The first half of [`strategy_cache_key`]: the FNV state after the
/// schema version and the graph section (structure and iteration spaces,
/// name-blind). Depends on nothing but the graph, so it can be memoized
/// for as long as the graph it names does not change.
pub fn graph_digest(graph: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.u64(SCHEMA_VERSION);
    h.u64(graph.len() as u64);
    for node in graph.nodes() {
        hash_op(&mut h, &node.op);
        h.u64(node.iter_space.len() as u64);
        for d in &node.iter_space {
            h.u64(d.size);
            h.u64(d.role as u64);
            h.u64(u64::from(d.splittable));
        }
        h.u64(node.inputs.len() as u64);
        for t in node.inputs.iter().chain([&node.output]).chain(&node.params) {
            h.u64(t.dims.len() as u64);
            for &dim in &t.dims {
                h.u64(u64::from(dim));
            }
            for &s in &t.sizes {
                h.u64(s);
            }
            h.u64(u64::from(t.elem_bytes));
        }
        h.u64(node.params.len() as u64);
    }
    h.u64(graph.edges().len() as u64);
    for e in graph.edges() {
        h.u64(e.src.index() as u64);
        h.u64(e.dst.index() as u64);
        h.u64(u64::from(e.dst_slot));
    }
    h.0
}

/// The second half of [`strategy_cache_key`]: continue the FNV state
/// `digest` (a [`graph_digest`]) with the rule, the mesh, the prune
/// settings and the entry family.
pub fn finish_key(
    digest: u64,
    rule: &ConfigRule,
    machine: &DeviceMesh,
    prune_epsilon: Option<f64>,
    frontier: bool,
) -> u64 {
    let mut h = Fnv(digest);

    // Configuration-enumeration rule (includes the device count p).
    h.u64(u64::from(rule.devices));
    h.u64(u64::from(rule.require_all_devices));
    h.opt_u64(rule.max_split_per_dim.map(u64::from));
    match rule.memory_limit {
        Some(b) => {
            h.u64(1);
            h.f64(b);
        }
        None => h.u64(0),
    }

    // Device mesh: every axis's shape and rates enter the cost model;
    // mesh and axis names do not.
    h.u64(machine.axes.len() as u64);
    for a in &machine.axes {
        h.u64(u64::from(a.size));
        h.f64(a.alpha);
        h.f64(a.bandwidth);
        h.f64(a.peak_flops);
    }

    // Prune settings (ε = 0 is exact but still a different search space
    // reduction pipeline, so it is distinguished from "no pruning").
    match prune_epsilon {
        Some(eps) => {
            h.u64(1);
            h.f64(eps);
        }
        None => h.u64(0),
    }

    // Frontier-family entries store a different payload (the full Pareto
    // set) and must not alias scalar entries for the same search.
    h.u64(u64::from(frontier));
    h.0
}

fn hash_op(h: &mut Fnv, op: &OpKind) {
    match op {
        OpKind::Conv2d {
            kernel_h,
            kernel_w,
            stride,
        } => {
            h.u64(0);
            h.u64(u64::from(*kernel_h));
            h.u64(u64::from(*kernel_w));
            h.u64(u64::from(*stride));
        }
        OpKind::Pool2d { kernel, stride } => {
            h.u64(1);
            h.u64(u64::from(*kernel));
            h.u64(u64::from(*stride));
        }
        OpKind::FullyConnected => h.u64(2),
        OpKind::Matmul => h.u64(3),
        OpKind::Softmax => h.u64(4),
        OpKind::Embedding => h.u64(5),
        OpKind::Lstm { layers } => {
            h.u64(6);
            h.u64(u64::from(*layers));
        }
        OpKind::Attention => h.u64(7),
        OpKind::FeedForward => h.u64(8),
        OpKind::LayerNorm => h.u64(9),
        OpKind::BatchNorm => h.u64(10),
        OpKind::Elementwise { flops_per_point } => {
            h.u64(11);
            h.f64(*flops_per_point);
        }
        OpKind::Concat => h.u64(12),
    }
}

/// One cached search result: the optimum plus the full report JSON that was
/// served for it, so a cache hit replays a byte-identical report.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// Model name of the originating request (informational).
    pub model: String,
    /// Device count of the originating request (informational).
    pub devices: u32,
    /// The optimal cost in FLOP units.
    pub cost: f64,
    /// The argmin strategy as per-node configuration ids.
    pub config_ids: Vec<u16>,
    /// The `(step time, peak memory)` Pareto frontier, sorted by
    /// increasing cost / strictly decreasing memory — empty for scalar
    /// (non-frontier) entries. A populated frontier lets the server answer
    /// any `max_memory_bytes` variant of the search by point selection,
    /// without another DP fill.
    pub frontier: Vec<FrontierPoint>,
    /// The `SearchReport` JSON served on the original miss.
    pub report_json: String,
}

impl CacheEntry {
    /// Serialize as the on-disk JSON document (schema-versioned).
    pub fn to_json(&self, key: u64) -> String {
        let mut out = String::with_capacity(256 + self.report_json.len());
        let _ = write!(
            out,
            "{{\"schema_version\": {SCHEMA_VERSION}, \"key\": \"{key:016x}\", \
             \"model\": \"{}\", \"devices\": {}, \"cost\": {}, \"config_ids\": [",
            json::escape(&self.model),
            self.devices,
            json::number(self.cost),
        );
        for (i, id) in self.config_ids.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{id}");
        }
        // Each frontier point is a compact [cost, memory_bytes, [ids...]]
        // triple; the array is empty for scalar entries.
        out.push_str("], \"frontier\": [");
        for (i, p) in self.frontier.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{}, {}, [", json::number(p.cost), p.memory_bytes);
            for (j, id) in p.config_ids.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{id}");
            }
            out.push_str("]]");
        }
        // The report is embedded as an escaped string, not spliced as an
        // object: the entry parser then never depends on the report's
        // internal shape.
        let _ = write!(
            out,
            "], \"report\": \"{}\"}}",
            json::escape(&self.report_json)
        );
        out
    }

    /// Approximate heap footprint of this entry, used for the cache's
    /// byte-weighted accounting. An estimate (struct size + owned buffers),
    /// not an allocator-exact measurement — it only needs to scale with
    /// the real cost so large frontier entries are charged as such.
    pub fn approx_bytes(&self) -> u64 {
        let frontier: usize = self
            .frontier
            .iter()
            .map(|p| std::mem::size_of::<FrontierPoint>() + 2 * p.config_ids.len())
            .sum();
        (std::mem::size_of::<Self>()
            + self.model.len()
            + 2 * self.config_ids.len()
            + frontier
            + self.report_json.len()) as u64
    }

    /// Parse an on-disk JSON document, rejecting unknown schema versions
    /// ([`Error::SchemaVersion`]) and malformed documents
    /// ([`Error::Protocol`]) — including a frontier that is not sorted
    /// cost-ascending with strictly descending memory, which budget
    /// selection ([`pase_core::cheapest_within`]) relies on.
    pub fn from_json(src: &str) -> Result<(u64, Self), Error> {
        let v = json::parse(src).map_err(Error::Protocol)?;
        let version = v
            .get("schema_version")
            .and_then(|x| x.as_u64())
            .ok_or_else(|| Error::Protocol("cache entry missing schema_version".into()))?;
        if version != SCHEMA_VERSION {
            return Err(Error::SchemaVersion {
                found: version,
                expected: SCHEMA_VERSION,
            });
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::Protocol(format!("cache entry missing {name}")))
        };
        let key = u64::from_str_radix(
            field("key")?
                .as_str()
                .ok_or_else(|| Error::Protocol("cache key must be a hex string".into()))?,
            16,
        )
        .map_err(|e| Error::Protocol(format!("bad cache key: {e}")))?;
        let ids_of = |x: &json::Value| {
            x.as_array()
                .ok_or_else(|| Error::Protocol("config_ids must be an array".into()))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .and_then(|v| u16::try_from(v).ok())
                        .ok_or_else(|| Error::Protocol("config id out of range".into()))
                })
                .collect::<Result<Vec<u16>, Error>>()
        };
        let config_ids = ids_of(field("config_ids")?)?;
        let frontier = field("frontier")?
            .as_array()
            .ok_or_else(|| Error::Protocol("frontier must be an array".into()))?
            .iter()
            .map(|p| {
                let triple = p.as_array().filter(|t| t.len() == 3).ok_or_else(|| {
                    Error::Protocol("frontier point must be [cost, bytes, ids]".into())
                })?;
                Ok(FrontierPoint {
                    cost: triple[0]
                        .as_f64()
                        .ok_or_else(|| Error::Protocol("frontier cost must be a number".into()))?,
                    memory_bytes: triple[1].as_u64().ok_or_else(|| {
                        Error::Protocol("frontier memory_bytes out of range".into())
                    })?,
                    config_ids: ids_of(&triple[2])?,
                })
            })
            .collect::<Result<Vec<FrontierPoint>, Error>>()?;
        if !frontier
            .windows(2)
            .all(|w| w[0].cost <= w[1].cost && w[0].memory_bytes > w[1].memory_bytes)
        {
            return Err(Error::Protocol(
                "frontier must be cost-ascending with strictly descending memory".into(),
            ));
        }
        Ok((
            key,
            CacheEntry {
                model: field("model")?
                    .as_str()
                    .ok_or_else(|| Error::Protocol("model must be a string".into()))?
                    .to_string(),
                devices: field("devices")?
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| Error::Protocol("devices out of range".into()))?,
                cost: field("cost")?
                    .as_f64()
                    .ok_or_else(|| Error::Protocol("cost must be a number".into()))?,
                config_ids,
                frontier,
                report_json: field("report")?
                    .as_str()
                    .ok_or_else(|| Error::Protocol("report must be a string".into()))?
                    .to_string(),
            },
        ))
    }
}

struct Slot {
    entry: CacheEntry,
    last_used: u64,
    bytes: u64,
}

/// Bounded LRU of [`CacheEntry`]s keyed by [`strategy_cache_key`], with
/// optional one-file-per-key JSON persistence.
///
/// Two independent bounds apply: an entry-count capacity and an optional
/// byte budget ([`StrategyCache::with_max_bytes`]). Entries vary wildly in
/// size — a frontier entry for a deep model can be hundreds of times
/// larger than a scalar MLP one — so counting entries alone lets the
/// resident bytes grow unbounded; the byte budget is checked first on
/// every insert. The last remaining entry is never evicted, even when it
/// alone exceeds the byte budget.
pub struct StrategyCache {
    map: HashMap<u64, Slot>,
    capacity: usize,
    max_bytes: Option<u64>,
    bytes: u64,
    disk_dir: Option<PathBuf>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl StrategyCache {
    /// An in-memory cache holding at most `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity: capacity.max(1),
            max_bytes: None,
            bytes: 0,
            disk_dir: None,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Additionally bound the resident entries to roughly `max_bytes`
    /// (per [`CacheEntry::approx_bytes`]); 0 is treated as unbounded.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.set_max_bytes(max_bytes);
        self
    }

    /// Mutating form of [`StrategyCache::with_max_bytes`] and immediately
    /// evicts down to the new budget.
    pub fn set_max_bytes(&mut self, max_bytes: u64) {
        self.max_bytes = (max_bytes > 0).then_some(max_bytes);
        self.evict_over_budget();
    }

    /// Additionally persist entries under `dir` (created on first write)
    /// and consult it on in-memory misses.
    pub fn with_disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// The persistence path for `key` under the configured disk
    /// directory, if any.
    pub fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// Look up `key`, consulting memory first and then the disk directory.
    /// Counts a hit or a miss; a disk hit is promoted into memory.
    /// Unreadable, malformed, or wrong-schema disk entries are misses.
    pub fn get(&mut self, key: u64) -> Option<CacheEntry> {
        let entry = self.probe(key);
        match entry {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        entry
    }

    /// [`StrategyCache::get`] without touching the hit/miss counters, for
    /// callers (the sharded serve-path cache) that account hits, misses,
    /// and singleflight-coalesced lookups themselves — a coalesced request
    /// re-probes the cache after waiting and must not inflate `hits`.
    /// Still refreshes LRU recency and promotes disk entries into memory.
    pub fn probe(&mut self, key: u64) -> Option<CacheEntry> {
        self.tick += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.last_used = self.tick;
            return Some(slot.entry.clone());
        }
        if let Some(path) = self.disk_path(key) {
            if let Ok(src) = std::fs::read_to_string(&path) {
                if let Ok((k, entry)) = CacheEntry::from_json(&src) {
                    if k == key {
                        self.insert_mem(key, entry.clone());
                        return Some(entry);
                    }
                }
            }
        }
        None
    }

    /// The in-memory half of [`StrategyCache::probe`]: refreshes LRU
    /// recency, but never reads the disk directory and touches no
    /// counter. The serve front end answers inline hits through this, on
    /// a thread that must never block on file I/O.
    pub fn probe_memory(&mut self, key: u64) -> Option<&CacheEntry> {
        self.tick += 1;
        let slot = self.map.get_mut(&key)?;
        slot.last_used = self.tick;
        Some(&slot.entry)
    }

    /// A genuinely non-mutating in-memory lookup: no counter updates, no
    /// LRU-recency refresh, no disk consultation or promotion. This is the
    /// inspection path — stats probes and prewarm checks must be able to
    /// ask "is this cached?" without perturbing eviction order; serving
    /// paths use [`StrategyCache::get`] / [`StrategyCache::probe`].
    pub fn peek(&self, key: u64) -> Option<CacheEntry> {
        self.map.get(&key).map(|slot| slot.entry.clone())
    }

    /// Insert `entry` under `key`, evicting the least-recently-used entry
    /// if the cache is full, and persisting to disk when configured.
    /// Disk failures are reported but the in-memory insert still happens.
    ///
    /// Callers that hold this cache behind a contended lock should instead
    /// use [`StrategyCache::put_memory`] inside the critical section and
    /// perform the disk write themselves outside it (see
    /// [`crate::sharded::MissGuard::fulfill`]) — this combined form keeps
    /// the file write inside whatever lock protects `&mut self`.
    pub fn put(&mut self, key: u64, entry: CacheEntry) -> Result<(), Error> {
        let json = self.disk_path(key).map(|path| (path, entry.to_json(key)));
        self.insert_mem(key, entry);
        if let Some((path, json)) = json {
            write_entry_file(&path, &json)?;
        }
        Ok(())
    }

    /// The in-memory half of [`StrategyCache::put`]: insert + LRU eviction
    /// only, never any I/O.
    pub fn put_memory(&mut self, key: u64, entry: CacheEntry) {
        self.insert_mem(key, entry);
    }

    fn insert_mem(&mut self, key: u64, entry: CacheEntry) {
        self.tick += 1;
        let bytes = entry.approx_bytes();
        if let Some(old) = self.map.insert(
            key,
            Slot {
                entry,
                last_used: self.tick,
                bytes,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_over_budget();
    }

    /// Evict least-recently-used entries until both bounds hold: the byte
    /// budget first (the binding constraint for mixed entry sizes), then
    /// the entry-count capacity. The most recent entry always survives.
    fn evict_over_budget(&mut self) {
        while self.map.len() > 1 && self.max_bytes.is_some_and(|m| self.bytes > m) {
            self.evict_lru();
        }
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        if let Some((&lru, _)) = self.map.iter().min_by_key(|(_, s)| s.last_used) {
            if let Some(slot) = self.map.remove(&lru) {
                self.bytes -= slot.bytes;
            }
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Approximate resident bytes of the in-memory entries (per
    /// [`CacheEntry::approx_bytes`]).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups answered from cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to a fresh search.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The configured disk directory, if any.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }
}

/// Persist one serialized entry, creating the cache directory on first
/// use. Kept free of `&StrategyCache` so callers can run it outside the
/// lock that guards the cache.
pub(crate) fn write_entry_file(path: &Path, json: &str) -> Result<(), Error> {
    let dir = path.parent().expect("cache file has a parent");
    std::fs::create_dir_all(dir).map_err(|source| Error::CacheIo {
        path: dir.to_path_buf(),
        source,
    })?;
    std::fs::write(path, json).map_err(|source| Error::CacheIo {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pase_cost::{MachineSpec, PruneOptions};

    fn entry(tag: &str) -> CacheEntry {
        CacheEntry {
            model: tag.to_string(),
            devices: 8,
            cost: 1.5e9,
            config_ids: vec![0, 3, 1],
            frontier: vec![],
            report_json: format!("{{\"model\": \"{tag}\"}}"),
        }
    }

    fn mlp4() -> Graph {
        pase_models::build_named("mlp", 4, false).unwrap()
    }

    fn fc_pair(names: [&str; 2]) -> Graph {
        use pase_graph::{DimRole, GraphBuilder, IterDim, Node, OpKind, TensorRef};
        let fc = |name: &str, ins: usize| Node {
            name: name.into(),
            op: OpKind::FullyConnected,
            iter_space: vec![
                IterDim::new("b", 64, DimRole::Batch),
                IterDim::new("n", 128, DimRole::Param),
                IterDim::new("c", 128, DimRole::Reduction),
            ],
            inputs: (0..ins)
                .map(|_| TensorRef::new(vec![0, 2], vec![64, 128]))
                .collect(),
            output: TensorRef::new(vec![0, 1], vec![64, 128]),
            params: vec![TensorRef::new(vec![1, 2], vec![128, 128])],
        };
        let mut b = GraphBuilder::new();
        let x = b.add_node(fc(names[0], 0));
        let y = b.add_node(fc(names[1], 1));
        b.connect(x, y);
        b.build().unwrap()
    }

    #[test]
    fn key_is_deterministic_and_name_blind() {
        let g = mlp4();
        let rule = ConfigRule::new(4);
        let m = DeviceMesh::flat(&MachineSpec::test_machine());
        let k1 = strategy_cache_key(&g, &rule, &m, None, false);
        let k2 = strategy_cache_key(&g, &rule, &m, None, false);
        assert_eq!(k1, k2);

        // Renaming nodes must not change the key: the search result cannot
        // depend on display names.
        assert_eq!(
            strategy_cache_key(&fc_pair(["a", "b"]), &rule, &m, None, false),
            strategy_cache_key(&fc_pair(["x", "y"]), &rule, &m, None, false),
        );
    }

    #[test]
    fn keys_match_their_pinned_values() {
        // The keys `pase query --model alexnet --devices 8` and
        // `--model mlp --devices 8 --frontier` were served before the key
        // was split into graph_digest + finish_key, re-pinned at the
        // schema 5 bump. Keys name --cache-dir files, so they must never
        // drift without a schema bump.
        let flat = DeviceMesh::flat(&MachineSpec::gtx1080ti());
        for (model, frontier, expect) in [
            ("alexnet", false, 0xb0ad_d00f_a57c_bfaau64),
            ("mlp", true, 0x9e11_4ee3_c61f_269f),
        ] {
            let g = pase_models::build_named(model, 8, false).unwrap();
            let rule = ConfigRule::new(8);
            let key = strategy_cache_key(&g, &rule, &flat, None, frontier);
            assert_eq!(key, expect, "{model}: {key:016x}");
            assert_eq!(
                finish_key(graph_digest(&g), &rule, &flat, None, frontier),
                expect
            );
        }
    }

    #[test]
    fn key_separates_every_input_dimension() {
        let g = mlp4();
        let rule = ConfigRule::new(4);
        let spec = MachineSpec::test_machine();
        let m = DeviceMesh::flat(&spec);
        let base = strategy_cache_key(&g, &rule, &m, None, false);

        // Device count.
        assert_ne!(
            strategy_cache_key(&g, &ConfigRule::new(8), &m, None, false),
            base
        );
        // Rule variations.
        assert_ne!(
            strategy_cache_key(&g, &ConfigRule::new(4).allow_idle(), &m, None, false),
            base
        );
        assert_ne!(
            strategy_cache_key(&g, &ConfigRule::new(4).with_max_split(2), &m, None, false),
            base
        );
        // Machine profile.
        assert_ne!(
            strategy_cache_key(
                &g,
                &rule,
                &DeviceMesh::flat(&MachineSpec::gtx1080ti()),
                None,
                false
            ),
            base
        );
        // Mesh shape: the same profile as a two-tier cluster mesh is a
        // different search, and distinct cluster shapes stay distinct.
        let tiered = strategy_cache_key(&g, &rule, &DeviceMesh::cluster(&spec, 2, 2), None, false);
        assert_ne!(tiered, base);
        assert_ne!(
            strategy_cache_key(&g, &rule, &DeviceMesh::cluster(&spec, 4, 1), None, false),
            tiered
        );
        // Mesh and axis names are cosmetic: renaming must share the entry.
        let mut renamed = DeviceMesh::flat(&spec);
        renamed.name = "other".to_string();
        renamed.axes[0].name = "bus".to_string();
        assert_eq!(strategy_cache_key(&g, &rule, &renamed, None, false), base);
        // Prune pipeline on/off, and ε value.
        let pruned = strategy_cache_key(&g, &rule, &m, Some(0.0), false);
        assert_ne!(pruned, base);
        assert_ne!(strategy_cache_key(&g, &rule, &m, Some(0.1), false), pruned);
        // Graph contents.
        let other = pase_models::build_named("mlp", 4, true).unwrap();
        assert_ne!(strategy_cache_key(&other, &rule, &m, None, false), base);
        // Frontier-family entries never alias scalar ones.
        assert_ne!(strategy_cache_key(&g, &rule, &m, None, true), base);
        // PruneOptions default epsilon matches the exact pipeline key.
        assert_eq!(
            strategy_cache_key(&g, &rule, &m, Some(PruneOptions::default().epsilon), false),
            pruned
        );
    }

    #[test]
    fn lru_hit_miss_and_eviction() {
        let mut c = StrategyCache::new(2);
        assert!(c.get(1).is_none());
        assert_eq!(c.misses(), 1);

        c.put(1, entry("a")).unwrap();
        c.put(2, entry("b")).unwrap();
        assert_eq!(c.get(1).unwrap().model, "a");
        assert_eq!(c.hits(), 1);

        // Key 2 is now least recently used; inserting key 3 evicts it.
        c.put(3, entry("c")).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn peek_is_non_mutating() {
        let mut c = StrategyCache::new(2);
        c.put(1, entry("a")).unwrap();
        c.put(2, entry("b")).unwrap();
        // Peeking key 1 must NOT refresh its recency: key 1 stays the LRU
        // victim and is evicted by the next insert.
        assert_eq!(c.peek(1).unwrap().model, "a");
        assert_eq!(c.hits(), 0, "peek never counts");
        c.put(3, entry("c")).unwrap();
        assert!(c.peek(1).is_none(), "peek must not have refreshed LRU");
        assert!(c.peek(2).is_some());

        // probe (the serving path) DOES refresh recency.
        let mut c = StrategyCache::new(2);
        c.put(1, entry("a")).unwrap();
        c.put(2, entry("b")).unwrap();
        assert!(c.probe(1).is_some());
        c.put(3, entry("c")).unwrap();
        assert!(c.peek(1).is_some(), "probe refreshed key 1");
        assert!(c.peek(2).is_none(), "key 2 became the victim");
    }

    #[test]
    fn peek_never_promotes_disk_entries() {
        let dir = std::env::temp_dir().join(format!("pase-peek-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = 77u64;
        {
            let mut c = StrategyCache::new(4).with_disk_dir(&dir);
            c.put(key, entry("on-disk")).unwrap();
        }
        let mut c2 = StrategyCache::new(4).with_disk_dir(&dir);
        assert!(c2.peek(key).is_none(), "peek is memory-only");
        assert_eq!(c2.len(), 0, "nothing promoted");
        assert!(c2.probe(key).is_some(), "probe consults disk");
        assert_eq!(c2.len(), 1, "probe promoted the entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_round_trip_and_schema_gate() {
        let dir = std::env::temp_dir().join(format!("pase-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let key = 0xdead_beef_u64;
        {
            let mut c = StrategyCache::new(4).with_disk_dir(&dir);
            c.put(key, entry("persisted")).unwrap();
        }
        // A fresh cache (cold memory) finds the entry on disk.
        let mut c2 = StrategyCache::new(4).with_disk_dir(&dir);
        let got = c2.get(key).expect("disk hit");
        assert_eq!(got, entry("persisted"));
        assert_eq!(c2.hits(), 1);
        // ... and promoted it into memory.
        assert_eq!(c2.len(), 1);

        // An entry from an incompatible build is rejected, not misparsed.
        let path = dir.join(format!("{key:016x}.json"));
        let bumped = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        match CacheEntry::from_json(&bumped) {
            Err(Error::SchemaVersion { found: 999, .. }) => {}
            other => panic!("expected SchemaVersion error, got {other:?}"),
        }
        std::fs::write(&path, bumped).unwrap();
        let mut c3 = StrategyCache::new(4).with_disk_dir(&dir);
        assert!(c3.get(key).is_none(), "wrong schema must be a miss");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_json_round_trips_exactly() {
        let e = CacheEntry {
            model: "trans\"former".into(),
            devices: 32,
            cost: 0.1 + 0.2, // not exactly representable — bit round-trip
            config_ids: vec![65535, 0, 7],
            frontier: vec![],
            report_json: "{\"cost\": 0.30000000000000004}".into(),
        };
        let (key, back) = CacheEntry::from_json(&e.to_json(42)).unwrap();
        assert_eq!(key, 42);
        assert_eq!(back.cost.to_bits(), e.cost.to_bits());
        assert_eq!(back, e);
    }

    #[test]
    fn frontier_payload_round_trips_exactly() {
        let mut e = entry("frontier");
        e.frontier = vec![
            FrontierPoint {
                cost: 0.1 + 0.2,
                memory_bytes: 9_000_000_000,
                config_ids: vec![4, 2, 0],
            },
            FrontierPoint {
                cost: 7.5e9,
                memory_bytes: 1_000_000,
                config_ids: vec![0, 0, 0],
            },
        ];
        let (key, back) = CacheEntry::from_json(&e.to_json(7)).unwrap();
        assert_eq!(key, 7);
        assert_eq!(back.frontier.len(), 2);
        assert_eq!(
            back.frontier[0].cost.to_bits(),
            e.frontier[0].cost.to_bits()
        );
        assert_eq!(back, e);
        // A frontier entry weighs more than its scalar twin.
        assert!(e.approx_bytes() > entry("frontier").approx_bytes());
    }

    #[test]
    fn an_unsorted_on_disk_frontier_is_rejected_as_a_miss() {
        let dir = std::env::temp_dir().join(format!("pase-cache-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = 0xfeed_u64;
        let point = |cost: f64, memory_bytes: u64| FrontierPoint {
            cost,
            memory_bytes,
            config_ids: vec![1, 2, 3],
        };
        let mut e = entry("tampered");
        e.frontier = vec![point(1.0, 100), point(2.0, 10)];
        StrategyCache::new(4)
            .with_disk_dir(&dir)
            .put(key, e.clone())
            .unwrap();
        let mut cold = StrategyCache::new(4).with_disk_dir(&dir);
        assert_eq!(cold.get(key), Some(e.clone()), "the intact entry loads");

        // Each tampering breaks the order budget selection relies on:
        // memory not descending, a memory tie, and cost not ascending.
        for frontier in [
            vec![point(1.0, 10), point(2.0, 100)],
            vec![point(1.0, 10), point(2.0, 10)],
            vec![point(2.0, 100), point(1.0, 10)],
        ] {
            let tampered = CacheEntry {
                frontier,
                ..e.clone()
            };
            match CacheEntry::from_json(&tampered.to_json(key)) {
                Err(Error::Protocol(msg)) => assert!(msg.contains("frontier"), "{msg}"),
                other => panic!("expected a protocol error, got {other:?}"),
            }
            write_entry_file(
                &dir.join(format!("{key:016x}.json")),
                &tampered.to_json(key),
            )
            .unwrap();
            let mut cold = StrategyCache::new(4).with_disk_dir(&dir);
            assert!(cold.get(key).is_none(), "a tampered entry must be a miss");
            assert_eq!(cold.misses(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sized_entry(tag: &str, report_bytes: usize) -> CacheEntry {
        CacheEntry {
            report_json: "x".repeat(report_bytes),
            ..entry(tag)
        }
    }

    #[test]
    fn byte_budget_evicts_before_the_entry_cap() {
        // Regression: capacity used to be entry-count only, so a handful
        // of huge entries could pin unbounded memory. With a byte budget,
        // the resident bytes stay under it even while the entry cap is
        // nowhere near exhausted.
        let per = entry("big").approx_bytes() + 4096;
        let mut c = StrategyCache::new(64).with_max_bytes(2 * per + per / 2);
        c.put(1, sized_entry("a", 4096)).unwrap();
        c.put(2, sized_entry("b", 4096)).unwrap();
        assert_eq!(c.len(), 2);
        // A third large entry pushes past the byte budget: the LRU entry
        // (key 1) goes, even though 64 slots remain.
        c.put(3, sized_entry("c", 4096)).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.peek(1).is_none(), "byte budget evicted the LRU entry");
        assert!(c.peek(2).is_some() && c.peek(3).is_some());
        assert!(c.bytes() <= 2 * per + per / 2);
    }

    #[test]
    fn byte_accounting_tracks_inserts_replacements_and_evictions() {
        let mut c = StrategyCache::new(2);
        assert_eq!(c.bytes(), 0);
        c.put(1, sized_entry("a", 100)).unwrap();
        let one = c.bytes();
        assert_eq!(one, sized_entry("a", 100).approx_bytes());
        // Replacement swaps the charge rather than double-counting.
        c.put(1, sized_entry("a", 5000)).unwrap();
        assert_eq!(c.bytes(), sized_entry("a", 5000).approx_bytes());
        // Entry-cap eviction releases the victim's bytes.
        c.put(2, sized_entry("b", 100)).unwrap();
        c.put(3, sized_entry("c", 100)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 2 * sized_entry("x", 100).approx_bytes());
    }

    #[test]
    fn the_last_entry_is_never_evicted_by_the_byte_budget() {
        let mut c = StrategyCache::new(8).with_max_bytes(1);
        c.put(1, sized_entry("a", 4096)).unwrap();
        assert_eq!(c.len(), 1, "an oversized sole entry stays resident");
        c.put(2, sized_entry("b", 4096)).unwrap();
        assert_eq!(c.len(), 1, "but it is the first victim of the next put");
        assert!(c.peek(2).is_some());
    }
}
