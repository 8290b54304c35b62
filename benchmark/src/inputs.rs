//! Seeded input generation. Everything here is input, not program work:
//! none of it is timed, and the same seed always yields the same inputs.

use std::sync::Arc;

use otc_core::forest::Forest;
use otc_core::request::Request;
use otc_core::tree::Tree;
use otc_sdn::{generate_events, FibEvent, FibWorkloadConfig};
use otc_trie::{hierarchical_table, HierarchicalConfig, Prefix, RuleTree};
use otc_util::SplitMix64;
use otc_workloads::{
    diurnal_tenant_stream, markov_bursty, random_attachment, DiurnalConfig, MarkovBurstyConfig,
    TenantProfile,
};

use crate::{Scale, ALPHA};

/// Shards of the `serve-pipelined` forest.
pub const PIPELINED_SHARDS: usize = 4;
/// Nodes per `serve-pipelined` shard tree.
pub const PIPELINED_NODES: usize = 2048;
/// Cache slots per `serve-pipelined` shard.
pub const PIPELINED_CAPACITY: usize = 128;

/// Arity and depth of the `serve-durable` tree: 6 cells of 259 nodes.
pub const DURABLE_KARY: (usize, usize) = (6, 5);
/// Cache slots per `serve-durable` cell: a Zipf(1.1) hot set mostly fits.
pub const DURABLE_CAPACITY: usize = 48;

/// Shards of the `fib-sharded` pipeline.
pub const FIB_SHARDS: usize = 4;
/// Worker threads of the `fib-sharded` pipeline.
pub const FIB_THREADS: usize = 2;
/// TCAM slots of the whole FIB, split evenly across shards.
pub const FIB_TCAM: usize = 256;

/// Where a serving forest comes from. Building it ([`ForestSource::build`])
/// is set-up work and is timed as such.
#[derive(Debug, Clone)]
pub enum ForestSource {
    /// Independent trees side by side ([`Forest::from_trees`]).
    Trees(Vec<Arc<Tree>>),
    /// One tree split into its root cells ([`Forest::cells`]).
    Cells(Arc<Tree>),
    /// One tree split into `n` balanced shards ([`Forest::partition`]).
    Partition(Arc<Tree>, usize),
}

impl ForestSource {
    /// Builds the forest.
    #[must_use]
    pub fn build(&self) -> Forest {
        match self {
            ForestSource::Trees(trees) => Forest::from_trees(trees.clone()),
            ForestSource::Cells(tree) => Forest::cells(tree),
            ForestSource::Partition(tree, n) => Forest::partition(tree, *n),
        }
    }
}

/// A request stream addressed over a forest's global ids, plus the
/// per-shard cache capacity it is served with.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The forest the stream is addressed over.
    pub forest: ForestSource,
    /// Cache slots per shard.
    pub capacity: usize,
    /// Globally addressed requests.
    pub stream: Vec<Request>,
}

/// `serve-pipelined`: Markov-bursty traffic over 4 random-attachment trees.
#[must_use]
pub fn pipelined(seed: u64, scale: &Scale) -> ServeInputs {
    let mut rng = SplitMix64::new(seed ^ 0x5E12_E000);
    let trees: Vec<Arc<Tree>> = (0..PIPELINED_SHARDS)
        .map(|_| Arc::new(random_attachment(PIPELINED_NODES, &mut rng)))
        .collect();
    let global: usize = trees.iter().map(|t| t.len()).sum();
    // `Tree::star(n)` has `n + 1` nodes: exactly the forest's id space.
    let flat = Tree::star(global - 1);
    let cfg = MarkovBurstyConfig { len: scale.pipelined_len, alpha: ALPHA, ..Default::default() };
    let stream = markov_bursty(&flat, cfg, &mut rng);
    ServeInputs { forest: ForestSource::Trees(trees), capacity: PIPELINED_CAPACITY, stream }
}

/// `serve-durable`: diurnal multi-tenant traffic over the cells of a
/// 6-ary tree, one tenant per cell.
#[must_use]
pub fn durable(seed: u64, scale: &Scale) -> ServeInputs {
    let mut rng = SplitMix64::new(seed ^ 0xD1A2_0000);
    let tree = Arc::new(Tree::kary(DURABLE_KARY.0, DURABLE_KARY.1));
    let forest = Forest::cells(&tree);
    let tenant = TenantProfile { weight: 1.0, theta: 1.1, update_p: 0.01 };
    let profiles = vec![tenant; forest.num_shards()];
    let cfg = DiurnalConfig {
        len: scale.durable_len,
        alpha: ALPHA,
        period: (scale.durable_len / 4).max(1),
        amplitude: 0.9,
    };
    let stream = diurnal_tenant_stream(&forest, &profiles, cfg, &mut rng);
    ServeInputs { forest: ForestSource::Cells(tree), capacity: DURABLE_CAPACITY, stream }
}

/// `fib-sharded`: a synthetic hierarchical FIB and its packet/update
/// events (Zipf θ = 1 popularity, 2% updates).
#[derive(Debug, Clone)]
pub struct FibInputs {
    /// The rule prefixes; `RuleTree::build` over them is set-up work.
    pub prefixes: Vec<Prefix>,
    /// The rule tree the events were generated against.
    pub rules: Arc<RuleTree>,
    /// The event stream one `run_fib_sharded` call processes.
    pub events: Vec<FibEvent>,
}

impl FibInputs {
    /// Cache slots per shard.
    #[must_use]
    pub fn capacity() -> usize {
        (FIB_TCAM / FIB_SHARDS).max(1)
    }

    /// The FIB stream as globally addressed requests over the rule tree
    /// partitioned like `run_fib_sharded` partitions it: each packet is
    /// one positive request to its LMP rule, each update α negatives.
    #[must_use]
    pub fn serve_inputs(&self) -> ServeInputs {
        let (stream, _) = otc_sdn::to_request_stream(&self.rules, &self.events, ALPHA);
        ServeInputs {
            forest: ForestSource::Partition(Arc::new(self.rules.tree().clone()), FIB_SHARDS),
            capacity: Self::capacity(),
            stream,
        }
    }
}

/// Generates the `fib-sharded` inputs.
#[must_use]
pub fn fib(seed: u64, scale: &Scale) -> FibInputs {
    let mut rng = SplitMix64::new(seed ^ 0xBE7C_0000);
    let prefixes = hierarchical_table(
        HierarchicalConfig { n: scale.fib_rules, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    );
    let rules = Arc::new(RuleTree::build(&prefixes));
    let events = generate_events(
        &rules,
        FibWorkloadConfig {
            events: scale.fib_events,
            theta: 1.0,
            update_p: 0.02,
            addr_attempts: 16,
        },
        &mut rng,
    );
    FibInputs { prefixes, rules, events }
}
