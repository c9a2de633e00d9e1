//! # pase-models — the model zoo (PaSE §IV benchmarks)
//!
//! Computation-graph builders for the paper's four evaluation benchmarks,
//! plus the DenseNet limitation study (§V) and extra models used by
//! examples and tests:
//!
//! | model | graph structure | paper role |
//! |---|---|---|
//! | [`alexnet`] | 12-node path | benchmark (a) |
//! | [`inception_v3`] | ≈219 nodes, local fan-out/concat | benchmark (b), Fig. 5 |
//! | [`rnnlm`] | 4-node path (LSTM as one 5-d vertex) | benchmark (c) |
//! | [`transformer`] | enc–dec with long-live-range encoder output | benchmark (d) |
//! | [`densenet`] | uniformly dense blocks | §V limitation |
//! | [`rnnlm_unrolled`] | FlexFlow-style unrolled cell lattice | §IV-A ablation |
//! | [`resnet`], [`vgg16`], [`bert_encoder`], [`mlp`] | extra zoo models | examples & tests |
//!
//! All builders take a config struct with `paper()` (evaluation shapes) and
//! `tiny()` (test shapes) constructors, and every graph passes
//! [`validate_edge_tensors`].

#![warn(missing_docs)]

mod alexnet;
mod bert;
mod densenet;
mod gnmt;
mod inception;
mod mlp;
pub mod ops;
mod resnet;
mod rnnlm;
mod transformer;
mod validate;
mod vgg;

pub use alexnet::{alexnet, AlexNetConfig};
pub use bert::{bert_encoder, BertConfig};
pub use densenet::{densenet, DenseNetConfig};
pub use gnmt::{gnmt, GnmtConfig};
pub use inception::{inception_v3, InceptionConfig};
pub use mlp::{mlp, MlpConfig};
pub use resnet::{resnet, ResNetConfig};
pub use rnnlm::{rnnlm, rnnlm_unrolled, RnnlmConfig};
pub use transformer::{transformer, TransformerConfig};
pub use validate::validate_edge_tensors;
pub use vgg::{vgg16, VggConfig};

use pase_graph::Graph;

/// The paper's four evaluation benchmarks (§IV), used by the experiment
/// harness to sweep Tables I–II and Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Benchmark {
    /// AlexNet, batch 128 (path graph).
    AlexNet,
    /// InceptionV3, batch 128 (sparse with high-degree concats).
    InceptionV3,
    /// RNNLM, batch 64 (single-vertex LSTM).
    Rnnlm,
    /// Transformer NMT, batch 64 (encoder–decoder).
    Transformer,
}

impl Benchmark {
    /// All four benchmarks in the paper's column order.
    pub fn all() -> [Benchmark; 4] {
        [
            Benchmark::AlexNet,
            Benchmark::InceptionV3,
            Benchmark::Rnnlm,
            Benchmark::Transformer,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::AlexNet => "AlexNet",
            Benchmark::InceptionV3 => "InceptionV3",
            Benchmark::Rnnlm => "RNNLM",
            Benchmark::Transformer => "Transformer",
        }
    }

    /// Build the paper-scale computation graph (single-device mini-batch:
    /// 128 for the CNNs, 64 for RNNLM/Transformer).
    pub fn build(&self) -> Graph {
        self.build_for(1)
    }

    /// Build the computation graph for a `p`-device run under the standard
    /// weak-scaling throughput protocol: the global mini-batch is the
    /// paper's per-benchmark batch (128 CNNs / 64 LM+NMT) *per device*.
    /// This is the batch regime in which the paper's modest (≤ 1.85× /
    /// ≤ 4×) advantages over data parallelism arise — with a fixed global
    /// batch, data parallelism at p = 32+ would be implausibly starved.
    pub fn build_for(&self, p: u32) -> Graph {
        let p = u64::from(p.max(1));
        match self {
            Benchmark::AlexNet => alexnet(&AlexNetConfig {
                batch: 128 * p,
                ..AlexNetConfig::paper()
            }),
            Benchmark::InceptionV3 => inception_v3(&InceptionConfig {
                batch: 128 * p,
                ..InceptionConfig::paper()
            }),
            Benchmark::Rnnlm => rnnlm(&RnnlmConfig {
                batch: 64 * p,
                ..RnnlmConfig::paper()
            }),
            Benchmark::Transformer => transformer(&TransformerConfig {
                batch: 64 * p,
                ..TransformerConfig::paper()
            }),
        }
    }

    /// Build the reduced test-scale computation graph.
    pub fn build_tiny(&self) -> Graph {
        match self {
            Benchmark::AlexNet => alexnet(&AlexNetConfig::tiny()),
            Benchmark::InceptionV3 => inception_v3(&InceptionConfig::tiny()),
            Benchmark::Rnnlm => rnnlm(&RnnlmConfig::tiny()),
            Benchmark::Transformer => transformer(&TransformerConfig::tiny()),
        }
    }
}

/// Every model name [`build_named`] resolves, in display order — the shared
/// vocabulary of the CLI's `--model` flag and the planner service's
/// `"model"` request field.
pub const MODEL_NAMES: [&str; 11] = [
    "alexnet",
    "inception",
    "rnnlm",
    "rnnlm-unrolled",
    "gnmt",
    "transformer",
    "densenet",
    "resnet",
    "vgg",
    "bert",
    "mlp",
];

/// Build a zoo model by name at its paper-scale configuration for a
/// `p`-device run. With `weak_scaling` the global mini-batch is scaled by
/// `p` (the throughput protocol of §IV); otherwise the paper's fixed batch
/// is used regardless of `p`.
///
/// Returns `Err` with the unknown name for anything outside
/// [`MODEL_NAMES`].
pub fn build_named(name: &str, p: u32, weak_scaling: bool) -> Result<Graph, String> {
    let scale = |b: u64| {
        if weak_scaling {
            b * u64::from(p.max(1))
        } else {
            b
        }
    };
    Ok(match name {
        "alexnet" => alexnet(&AlexNetConfig {
            batch: scale(128),
            ..AlexNetConfig::paper()
        }),
        "inception" => inception_v3(&InceptionConfig {
            batch: scale(128),
            ..InceptionConfig::paper()
        }),
        "rnnlm" => rnnlm(&RnnlmConfig {
            batch: scale(64),
            ..RnnlmConfig::paper()
        }),
        "rnnlm-unrolled" => rnnlm_unrolled(&RnnlmConfig {
            batch: scale(64),
            ..RnnlmConfig::paper()
        }),
        "transformer" => transformer(&TransformerConfig {
            batch: scale(64),
            ..TransformerConfig::paper()
        }),
        "densenet" => densenet(&DenseNetConfig {
            batch: scale(128),
            ..DenseNetConfig::paper()
        }),
        "resnet" => resnet(&ResNetConfig {
            batch: scale(128),
            ..ResNetConfig::paper()
        }),
        "gnmt" => gnmt(&GnmtConfig {
            batch: scale(64),
            ..GnmtConfig::paper()
        }),
        "vgg" => vgg16(&VggConfig {
            batch: scale(128),
            ..VggConfig::paper()
        }),
        "bert" => bert_encoder(&BertConfig {
            batch: scale(64),
            ..BertConfig::paper()
        }),
        "mlp" => mlp(&MlpConfig {
            batch: scale(64),
            ..Default::default()
        }),
        other => return Err(format!("unknown model '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_builds_and_validates() {
        for b in Benchmark::all() {
            let g = b.build();
            assert!(!g.is_empty(), "{} is empty", b.name());
            assert!(
                pase_graph::is_weakly_connected(&g),
                "{} disconnected",
                b.name()
            );
            validate_edge_tensors(&g, 0.25).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn benchmark_names_are_stable() {
        let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["AlexNet", "InceptionV3", "RNNLM", "Transformer"]
        );
    }

    #[test]
    fn every_named_model_builds() {
        for name in MODEL_NAMES {
            let g = build_named(name, 4, false).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!g.is_empty(), "{name} is empty");
        }
        assert!(build_named("nope", 4, false).is_err());
    }

    #[test]
    fn zoo_builds_under_the_edge_rank_check() {
        // `GraphBuilder::build` rejects producer/consumer rank mismatches;
        // every zoo model, at every scale the planner serves, still builds.
        for name in MODEL_NAMES {
            for p in [1, 8, 64] {
                for weak in [false, true] {
                    build_named(name, p, weak).unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
        }
        for b in Benchmark::all() {
            for p in [8, 64] {
                assert!(!b.build_for(p).is_empty());
            }
            assert!(!b.build_tiny().is_empty());
        }
    }

    #[test]
    fn weak_scaling_multiplies_the_batch() {
        let fixed = build_named("mlp", 8, false).unwrap();
        let weak = build_named("mlp", 8, true).unwrap();
        let batch = |g: &Graph| g.nodes()[0].iter_space[0].size;
        assert_eq!(batch(&weak), 8 * batch(&fixed));
    }
}
