//! Pluggable phase-2 inference backends.
//!
//! The paper only ever validated one inference family — modularity-style
//! graph clustering over the Eq. (2) metric. [`Backend`] selects the
//! "snapshot graph → host partition" step so independent families can be
//! cross-validated on the same measurement campaign:
//!
//! * the four clustering algorithms — [`Backend::Louvain`],
//!   [`Backend::Infomap`], [`Backend::LabelPropagation`] and
//!   [`Backend::HierarchicalLouvain`] — run byte-identical to the
//!   pre-backend path: same per-prefix seed derivation, same
//!   [`LouvainScratch`] reuse (pinned by
//!   `crates/core/tests/backend_golden.rs`).
//! * [`Backend::Additive`] is Ni & Tatikonda-style additive-metrics
//!   tomography ([`btt_cluster::additive`]): recursive grouping over the
//!   log-throughput path metric, cut at the largest log-domain gap. It is
//!   seedless — agreement between the two families on a scenario is
//!   evidence the recovered structure is real, disagreement localizes
//!   which assumptions (modularity resolution vs. metric additivity) fail.
//!
//! [`Backend`] is the compact, copyable selector threaded through session
//! builders, sweep specs, the serve job schema, and artifact writers;
//! [`Backend::infer_into`] is its one dispatch and [`Backend::from_name`] /
//! [`Backend::name`] define the CLI/JSON spelling. A clustering backend's
//! [`Backend::name`] is the algorithm's own name (`"louvain"`, …), so
//! artifact file stems and the report `algorithm` field keep their
//! pre-backend spelling byte-for-byte.

use btt_cluster::additive::additive_partition;
use btt_cluster::graph::WeightedGraph;
use btt_cluster::hierarchy::{recursive_louvain, HierarchyConfig};
use btt_cluster::infomap::infomap;
use btt_cluster::labelprop::label_propagation;
use btt_cluster::louvain::{louvain_into, LouvainScratch};
use btt_cluster::partition::Partition;

/// Compact selector for an inference backend — the value threaded through
/// session builders, sweep specs, serve jobs, and artifact writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Modularity-maximizing Louvain (the paper's method, §III-B) — the
    /// default phase-2 path.
    #[default]
    Louvain,
    /// Map-equation Infomap (the paper's §III-D negative comparison).
    Infomap,
    /// Label propagation (extra baseline).
    LabelPropagation,
    /// Recursive Louvain (the paper's §V future-work extension): splits
    /// clusters while sub-structure remains substantial and reports the
    /// finest level.
    HierarchicalLouvain,
    /// Additive-metrics tomography (Ni & Tatikonda): recursive grouping
    /// over the log-throughput path metric. Seedless and scratch-free.
    Additive,
}

impl Backend {
    /// All backends, in a stable sweep order: the four clustering
    /// algorithms, then additive.
    pub const ALL: [Backend; 5] = [
        Backend::Louvain,
        Backend::Infomap,
        Backend::LabelPropagation,
        Backend::HierarchicalLouvain,
        Backend::Additive,
    ];

    /// Parses a backend name, case-insensitively: every [`Backend::name`],
    /// the shorthands `"im"`, `"lp"`, `"hlouvain"` and `"add"`, and the
    /// family name `"clustering"` (= the paper's Louvain).
    pub fn from_name(name: &str) -> Option<Backend> {
        Some(match name.to_ascii_lowercase().as_str() {
            "louvain" | "clustering" => Backend::Louvain,
            "infomap" | "im" => Backend::Infomap,
            "label-propagation" | "lp" => Backend::LabelPropagation,
            "hierarchical-louvain" | "hlouvain" => Backend::HierarchicalLouvain,
            "additive" | "add" => Backend::Additive,
            _ => return None,
        })
    }

    /// Every name [`Backend::from_name`] accepts, for error messages
    /// ("valid backends: …").
    pub fn name_list() -> &'static str {
        "louvain (clustering), infomap (im), label-propagation (lp), \
         hierarchical-louvain (hlouvain), additive (add)"
    }

    /// Canonical name: the algorithm's own name for clustering backends
    /// (keeping historical artifact spellings), `"additive"` otherwise.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Louvain => "louvain",
            Backend::Infomap => "infomap",
            Backend::LabelPropagation => "label-propagation",
            Backend::HierarchicalLouvain => "hierarchical-louvain",
            Backend::Additive => "additive",
        }
    }

    /// Whether the backend consumes the seed at all. Seedless backends are
    /// deterministic per graph; reporting layers use this to annotate
    /// cost/diagnostic output (a seed sweep over a seedless backend is
    /// wasted work).
    pub fn uses_seed(self) -> bool {
        self != Backend::Additive
    }

    /// Runs the backend with fresh scratch memory.
    pub fn infer(self, g: &WeightedGraph, seed: u64) -> Partition {
        self.infer_into(g, seed, &mut LouvainScratch::default())
    }

    /// Infers the host partition from one snapshot measurement graph,
    /// reusing caller-provided Louvain working memory — the
    /// long-lived-session path. Every phase-2 inference goes through here.
    ///
    /// Determinism contract (it is what keeps reports byte-identical across
    /// thread counts, drive modes, and batch/stream control flow):
    ///
    /// * the output is a pure function of `(g, seed)` — `scratch` is
    ///   working memory only and never influences it, so the result equals
    ///   [`Backend::infer`]'s for any scratch state;
    /// * no global or ambient randomness: every random choice derives from
    ///   `seed` alone (the additive backend ignores it);
    /// * no state keyed on call order: the same arguments always yield the
    ///   same partition.
    pub fn infer_into(
        self,
        g: &WeightedGraph,
        seed: u64,
        scratch: &mut LouvainScratch,
    ) -> Partition {
        match self {
            Backend::Louvain => louvain_into(g, seed, scratch).best().clone(),
            Backend::Infomap => infomap(g, seed).best().clone(),
            Backend::LabelPropagation => label_propagation(g, seed, 200),
            Backend::HierarchicalLouvain => {
                recursive_louvain(g, seed, HierarchyConfig::default()).leaf_partition()
            }
            Backend::Additive => additive_partition(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_cluster::generators::planted_partition;
    use btt_cluster::louvain::louvain;

    #[test]
    fn clustering_backend_matches_the_direct_algorithm_call() {
        let (g, _) = planted_partition(3, 8, 9.0, 0.4, 11);
        let direct = [
            louvain(&g, 42).best().clone(),
            infomap(&g, 42).best().clone(),
            label_propagation(&g, 42, 200),
            recursive_louvain(&g, 42, HierarchyConfig::default()).leaf_partition(),
            additive_partition(&g),
        ];
        for (b, want) in Backend::ALL.into_iter().zip(direct) {
            assert_eq!(b.infer(&g, 42), want, "{}", b.name());
        }
    }

    #[test]
    fn infer_into_matches_infer_for_any_scratch_state() {
        let (g, _) = planted_partition(2, 4, 9.0, 0.4, 5);
        let mut scratch = LouvainScratch::default();
        for b in Backend::ALL {
            // A dirty scratch (reused across backends and seeds) must not
            // change a single assignment.
            for seed in [1u64, 99, 0xFFFF_FFFF] {
                assert_eq!(
                    b.infer_into(&g, seed, &mut scratch),
                    b.infer(&g, seed),
                    "{} seed {seed}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn names_round_trip_case_insensitively() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_ascii_uppercase()), Some(b));
        }
        assert_eq!(Backend::from_name("Clustering"), Some(Backend::Louvain));
        assert_eq!(Backend::from_name("ADD"), Some(Backend::Additive));
        assert_eq!(Backend::from_name("HLouvain"), Some(Backend::HierarchicalLouvain));
        assert_eq!(Backend::from_name("nope"), None);
    }

    #[test]
    fn infomap_parses_as_im() {
        let infomap = Some(Backend::Infomap);
        assert_eq!(Backend::from_name("im"), infomap);
        assert_eq!(Backend::from_name("IM"), infomap);
        assert_eq!(Backend::from_name("imp"), None);
        for token in ["im", "lp", "hlouvain", "add", "clustering"] {
            assert!(Backend::name_list().contains(token), "{token}");
            assert!(Backend::from_name(token).is_some());
        }
    }

    #[test]
    fn additive_backend_ignores_seed_and_scratch() {
        let (g, _) = planted_partition(4, 6, 10.0, 0.5, 3);
        assert!(!Backend::Additive.uses_seed());
        let a = Backend::Additive.infer(&g, 1);
        let b = Backend::Additive.infer(&g, 0xDEAD_BEEF);
        assert_eq!(a, b);
    }
}
