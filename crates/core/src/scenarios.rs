//! Parseable scenario specifications for campaign sweeps.
//!
//! A [`ScenarioSpec`] names anything the pipeline can run: one of the
//! paper's Grid'5000 [`Dataset`]s, or a parameterized synthetic topology
//! from [`btt_netsim::synthetic`] — optionally decorated with reliability
//! suffixes (`+churn=` / `+xtraffic=` / `+degrade=`, see
//! [`btt_netsim::perturb`]) that make the measurement campaign dynamic,
//! e.g. `wan:16x64:0.5:20+churn=0.05+xtraffic=0.2`.
//!
//! **The full grammar is documented in one place** — README §"Scenario
//! specs" and `docs/ARCHITECTURE.md` §"Scenario grammar" — rather than
//! scattered across parser comments; `btt list` prints a summary.
//!
//! Parsing and [`ScenarioSpec::id`] are inverse-compatible: the id of a
//! parsed spec parses back to the same spec, so ids are safe keys for
//! output files and cross-PR diffs.

use crate::dataset::{Dataset, Scenario};
use btt_cluster::partition::Partition;
use btt_netsim::grid5000::Grid5000;
use btt_netsim::perturb::ReliabilityCfg;
use btt_netsim::synthetic::{FatTree, HeteroWan, StarOfStars};

/// Default iteration count for synthetic scenarios (sweeps favour breadth
/// over per-scenario depth; the paper's Fig. 13 shows convergence well
/// before 10 iterations on every dataset).
pub const SYNTHETIC_ITERATIONS: u32 = 10;

/// Most hosts a synthetic spec may ask for: 8× the largest preset, `wan-8k`.
/// `btt serve` parses specs from wire input, so no spec may overflow the
/// host count or ask for a network too large to build.
pub const MAX_SCENARIO_HOSTS: usize = 65_536;

/// Most switches and routers a synthetic spec may ask for. Routing keeps
/// 4 B per pair of them, so this caps the route table at 64 MB; the largest
/// preset, `fat-tree-4k`, has 273.
pub const MAX_SCENARIO_SWITCHES: usize = 4_096;

/// A buildable scenario: a paper dataset or a synthetic topology family
/// member.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// One of the paper's Grid'5000 datasets.
    Dataset(Dataset),
    /// A two-tier fat-tree (see [`FatTree`]).
    FatTree(FatTree),
    /// A hub-and-spoke star of stars (see [`StarOfStars`]).
    Star(StarOfStars),
    /// A uniform heterogeneous WAN: `sites` sites of `hosts` hosts, WAN
    /// segments provisioned at `bottleneck_ratio` of site demand (see
    /// [`HeteroWan::uniform_with_access`]).
    Wan {
        /// Number of sites.
        sites: usize,
        /// Hosts per site.
        hosts: usize,
        /// WAN segment capacity as a fraction of site aggregate demand.
        bottleneck_ratio: f64,
        /// Host access-link goodput in Mb/s
        /// ([`btt_netsim::synthetic::SYNTH_ACCESS_MBPS`] by default; low
        /// values model consumer-edge peers with long broadcast times).
        access_mbps: f64,
    },
    /// Any base scenario measured under reliability perturbations
    /// (`+churn=` / `+xtraffic=` / `+degrade=` suffixes).
    Perturbed {
        /// The underlying (non-perturbed) scenario.
        base: Box<ScenarioSpec>,
        /// Perturbation intensities (at least one nonzero).
        reliability: ReliabilityCfg,
    },
}

/// Named scale presets: shorthands for the large synthetic scenarios the
/// scaling work standardizes on, accepted anywhere a spec string is
/// ([`ScenarioSpec::parse`] resolves them before syntax parsing).
///
/// `…-512` presets hold 512 hosts; `…-1k` presets hold 1024, except
/// `star-1k`, whose hub adds 16 more (16×64 arm hosts + 16 hub hosts =
/// 1040). The `edge-512`/`edge-1k` presets pair the WAN shape with 20 Mb/s
/// consumer-edge access links and `edge-2k` (2048 hosts) with 2 Mb/s — the
/// regime where broadcasts run long in simulated time. `edge-2k-wide` is
/// `edge-2k`'s recovery control (same hosts and access tier, 4× larger
/// ground-truth clusters). `fat-tree-4k`
/// (4096 hosts) and `wan-8k` (8192 hosts) are the scale-smoke points for
/// the parallel measurement path; sized so a shallow campaign on either
/// fits a CI smoke budget.
pub const SCALE_PRESETS: &[(&str, &str)] = &[
    ("fat-tree-512", "fat-tree:8x8x8:4:2"),
    ("fat-tree-1k", "fat-tree:8x8x16:4:2"),
    ("star-1k", "star:16x64:0.25:16"),
    ("wan-512", "wan:16x32:0.5"),
    ("wan-1k", "wan:16x64:0.5"),
    ("edge-512", "wan:16x32:0.5:20"),
    ("edge-1k", "wan:16x64:0.5:20"),
    ("edge-2k", "wan:32x64:0.5:2"),
    // Recovery control for edge-2k's oNMI = 0: identical host count and
    // 2 Mb/s access tier, but 16 sites of 128 hosts instead of 32 of 64.
    // With clusters this large relative to n, every inference family
    // (clustering *and* additive) recovers the sites at oNMI > 0.95 —
    // pinning edge-2k's zero on cluster-size identifiability, not scale.
    ("edge-2k-wide", "wan:16x128:0.5:2"),
    ("fat-tree-4k", "fat-tree:16x16x16:4:2"),
    ("wan-8k", "wan:64x128:0.5"),
    // Churned variants: the same networks measured under failures — the
    // reliability claim's standard test points.
    ("wan-512-churn", "wan:16x32:0.5+churn=0.05+xtraffic=0.2"),
    ("fat-tree-1k-churn", "fat-tree:8x8x16:4:2+churn=0.05+xtraffic=0.2"),
    ("edge-1k-churn", "wan:16x64:0.5:20+churn=0.1+degrade=0.1"),
];

/// Formats a ratio parameter for spec ids. Rust's shortest-round-trip
/// `Display` already yields compact, re-parseable tokens (`4`, `0.25`,
/// `1.5` — never a trailing `.0`).
fn fmt_ratio(x: f64) -> String {
    format!("{x}")
}

impl ScenarioSpec {
    /// Parses the CLI syntax described in the module docs, including the
    /// [`SCALE_PRESETS`] shorthands (`fat-tree-1k`, `edge-512`, …).
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let text = text.trim();
        // Paper dataset legend names first (case-insensitive).
        for d in
            [Dataset::B, Dataset::BT, Dataset::GT, Dataset::BGT, Dataset::BGTL, Dataset::Small2x2]
        {
            if text.eq_ignore_ascii_case(d.id()) {
                return Ok(ScenarioSpec::Dataset(d));
            }
        }
        // Named scale presets next: each expands to its canonical spec.
        for (name, spec) in SCALE_PRESETS {
            if text.eq_ignore_ascii_case(name) {
                return ScenarioSpec::parse(spec);
            }
        }
        // Reliability suffixes: `<base>+churn=0.05+xtraffic=0.2+degrade=0.1`.
        if let Some((base_text, suffixes)) = text.split_once('+') {
            // The base may itself resolve to a perturbed spec (a churned
            // preset name): later suffixes override its intensities.
            let (base, mut rel) = match ScenarioSpec::parse(base_text)? {
                ScenarioSpec::Perturbed { base, reliability } => (*base, reliability),
                other => (other, ReliabilityCfg::default()),
            };
            for pair in suffixes.split('+') {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(format!(
                        "{text:?}: reliability suffix {pair:?} wants key=value (churn, xtraffic, degrade)"
                    ));
                };
                let v = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!("{text:?}: {key} wants a fraction in [0, 1], got {value:?}")
                    })?;
                match key.trim().to_ascii_lowercase().as_str() {
                    "churn" => rel.churn = v,
                    "xtraffic" => rel.xtraffic = v,
                    "degrade" => rel.degrade = v,
                    other => {
                        return Err(format!(
                            "{text:?}: unknown reliability suffix {other:?} (valid: churn, xtraffic, degrade)"
                        ))
                    }
                }
            }
            // All-zero suffixes normalize to the base spec, so ids stay
            // canonical (`wan:2x2+churn=0` round-trips to `wan:2x2`).
            if rel.is_off() {
                return Ok(base);
            }
            return Ok(ScenarioSpec::Perturbed { base: Box::new(base), reliability: rel });
        }
        let (kind, rest) = match text.split_once(':') {
            Some((k, r)) => (k, r),
            None => return Err(format!("unknown scenario {text:?} (not a dataset id, and synthetic specs need parameters, e.g. \"star:3x8\")")),
        };
        let parts: Vec<&str> = rest.split(':').collect();
        let dims: Vec<&str> = parts[0].split('x').collect();
        let dim = |i: usize| -> Result<usize, String> {
            dims.get(i)
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{text:?}: expected positive integer dimensions"))
        };
        let ratio = |i: usize, default: f64| -> Result<f64, String> {
            match parts.get(i) {
                None => Ok(default),
                Some(s) => s
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 0.0)
                    .ok_or_else(|| format!("{text:?}: bad ratio {s:?}")),
            }
        };
        match kind.to_ascii_lowercase().as_str() {
            "fat-tree" | "fattree" => {
                if dims.len() != 3 || parts.len() > 3 {
                    return Err(format!(
                        "{text:?}: fat-tree wants <pods>x<racks>x<hosts>[:<edge_oversub>[:<core_oversub>]]"
                    ));
                }
                let f = FatTree {
                    pods: dim(0)?,
                    racks_per_pod: dim(1)?,
                    hosts_per_rack: dim(2)?,
                    edge_oversubscription: ratio(1, 4.0)?,
                    core_oversubscription: ratio(2, 1.0)?,
                };
                // One edge switch per rack, one aggregation switch per pod,
                // one core switch.
                let racks = f.pods.saturating_mul(f.racks_per_pod);
                let switches = racks.saturating_add(f.pods).saturating_add(1);
                check_size(text, racks.saturating_mul(f.hosts_per_rack), switches)?;
                Ok(ScenarioSpec::FatTree(f))
            }
            "star" => {
                if dims.len() != 2 || parts.len() > 3 {
                    return Err(format!(
                        "{text:?}: star wants <arms>x<hosts>[:<uplink_ratio>[:<hub_hosts>]]"
                    ));
                }
                let hub_hosts = match parts.get(2) {
                    None => 4,
                    Some(s) => s
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("{text:?}: bad hub host count {s:?}"))?,
                };
                let s = StarOfStars {
                    arms: dim(0)?,
                    hosts_per_arm: dim(1)?,
                    hub_hosts,
                    uplink_ratio: ratio(1, 0.25)?,
                };
                // One switch per arm plus the hub's.
                let hosts = s.arms.saturating_mul(s.hosts_per_arm).saturating_add(s.hub_hosts);
                check_size(text, hosts, s.arms.saturating_add(1))?;
                Ok(ScenarioSpec::Star(s))
            }
            "wan" => {
                if dims.len() != 2 || parts.len() > 3 {
                    return Err(format!(
                        "{text:?}: wan wants <sites>x<hosts>[:<bottleneck_ratio>[:<access_mbps>]]"
                    ));
                }
                let (sites, hosts) = (dim(0)?, dim(1)?);
                // A switch and a router per site, plus the WAN core router.
                let switches = sites.saturating_mul(2).saturating_add(1);
                check_size(text, sites.saturating_mul(hosts), switches)?;
                Ok(ScenarioSpec::Wan {
                    sites,
                    hosts,
                    bottleneck_ratio: ratio(1, 0.5)?,
                    access_mbps: ratio(2, btt_netsim::synthetic::SYNTH_ACCESS_MBPS)?,
                })
            }
            other => Err(format!("unknown scenario family {other:?}")),
        }
    }

    /// The canonical spec string: parseable by [`ScenarioSpec::parse`] and
    /// safe to embed in file names after sanitization (letters, digits,
    /// `x . : - + =` only; campaign outputs map `: + =` to `-`).
    pub fn id(&self) -> String {
        match self {
            ScenarioSpec::Dataset(d) => d.id().to_string(),
            ScenarioSpec::FatTree(f) => format!(
                "fat-tree:{}x{}x{}:{}:{}",
                f.pods,
                f.racks_per_pod,
                f.hosts_per_rack,
                fmt_ratio(f.edge_oversubscription),
                fmt_ratio(f.core_oversubscription)
            ),
            ScenarioSpec::Star(s) => format!(
                "star:{}x{}:{}:{}",
                s.arms,
                s.hosts_per_arm,
                fmt_ratio(s.uplink_ratio),
                s.hub_hosts
            ),
            ScenarioSpec::Wan { sites, hosts, bottleneck_ratio, access_mbps } => {
                // The access speed is appended only when it differs from the
                // default, so pre-existing ids stay stable across PRs.
                if *access_mbps == btt_netsim::synthetic::SYNTH_ACCESS_MBPS {
                    format!("wan:{sites}x{hosts}:{}", fmt_ratio(*bottleneck_ratio))
                } else {
                    format!(
                        "wan:{sites}x{hosts}:{}:{}",
                        fmt_ratio(*bottleneck_ratio),
                        fmt_ratio(*access_mbps)
                    )
                }
            }
            ScenarioSpec::Perturbed { base, reliability } => {
                // Canonical suffix order (churn, xtraffic, degrade), zero
                // entries omitted — ids parse back to the same spec.
                let mut id = base.id();
                for (key, v) in [
                    ("churn", reliability.churn),
                    ("xtraffic", reliability.xtraffic),
                    ("degrade", reliability.degrade),
                ] {
                    if v != 0.0 {
                        id.push('+');
                        id.push_str(key);
                        id.push('=');
                        id.push_str(&fmt_ratio(v));
                    }
                }
                id
            }
        }
    }

    /// Builds the ready-to-run [`Scenario`], including the family-specific
    /// ground truth:
    ///
    /// * fat-tree — one cluster per rack if the edge tier is oversubscribed
    ///   (> 1), else one per pod if the core tier is, else a single cluster;
    /// * star — one cluster per arm plus the hub if the uplinks are
    ///   bottlenecked (ratio < 1), else a single cluster;
    /// * wan — one cluster per site if the WAN segments are bottlenecked,
    ///   else a single cluster.
    pub fn build(&self) -> Scenario {
        // `Scenario::custom` defaults the ground truth to one cluster per
        // site (`logical_clusters`), which is already correct for every
        // bottlenecked synthetic family except the rack-bound fat-tree;
        // non-bottlenecked networks degrade to a single cluster (the 2×2
        // lesson of §IV-B1: no bottleneck, no structure to find).
        match self {
            ScenarioSpec::Dataset(d) => d.build(),
            ScenarioSpec::FatTree(f) => {
                let mut s = Scenario::custom(self.id(), f.build(), SYNTHETIC_ITERATIONS);
                if f.edge_oversubscription > 1.0 {
                    s.ground_truth = per_cluster_truth(&s.grid, &s);
                } else if f.core_oversubscription <= 1.0 {
                    s.ground_truth = Partition::trivial(s.hosts.len());
                }
                s
            }
            ScenarioSpec::Star(st) => {
                let mut s = Scenario::custom(self.id(), st.build(), SYNTHETIC_ITERATIONS);
                if st.uplink_ratio >= 1.0 {
                    s.ground_truth = Partition::trivial(s.hosts.len());
                }
                s
            }
            ScenarioSpec::Wan { sites, hosts, bottleneck_ratio, access_mbps } => {
                let grid =
                    HeteroWan::uniform_with_access(*sites, *hosts, *bottleneck_ratio, *access_mbps)
                        .build();
                let mut s = Scenario::custom(self.id(), grid, SYNTHETIC_ITERATIONS);
                if *bottleneck_ratio >= 1.0 {
                    s.ground_truth = Partition::trivial(s.hosts.len());
                }
                s
            }
            ScenarioSpec::Perturbed { base, reliability } => {
                // The base network and ground truth, measured under
                // failures: only the id and the reliability config differ.
                let mut s = base.build();
                s.id = self.id();
                s.reliability = *reliability;
                s
            }
        }
    }

    /// Parses a comma-separated list of specs, e.g.
    /// `"B,G-T,star:3x8,wan:3x4:0.5"`.
    pub fn parse_list(text: &str) -> Result<Vec<ScenarioSpec>, String> {
        text.split(',').filter(|s| !s.trim().is_empty()).map(ScenarioSpec::parse).collect()
    }
}

/// Rejects a synthetic network with more than [`MAX_SCENARIO_HOSTS`] hosts
/// or [`MAX_SCENARIO_SWITCHES`] switches and routers. Callers count with
/// saturating arithmetic, so a count that overflows reads as too large.
fn check_size(text: &str, hosts: usize, switches: usize) -> Result<(), String> {
    if hosts > MAX_SCENARIO_HOSTS {
        return Err(format!("{text:?}: more than MAX_SCENARIO_HOSTS = {MAX_SCENARIO_HOSTS} hosts"));
    }
    if switches > MAX_SCENARIO_SWITCHES {
        return Err(format!(
            "{text:?}: more than MAX_SCENARIO_SWITCHES = {MAX_SCENARIO_SWITCHES} switches and routers"
        ));
    }
    Ok(())
}

/// Ground truth with one cluster per (site, physical cluster) pair — the
/// rack granularity for fat-trees.
fn per_cluster_truth(grid: &Grid5000, s: &Scenario) -> Partition {
    let topo = &grid.topology;
    let mut keys: Vec<(String, String)> = Vec::new();
    let raw: Vec<u32> = s
        .hosts
        .iter()
        .map(|&h| {
            let n = topo.node(h);
            let key = (n.site.clone().unwrap_or_default(), n.cluster.clone().unwrap_or_default());
            match keys.iter().position(|k| *k == key) {
                Some(i) => i as u32,
                None => {
                    keys.push(key);
                    (keys.len() - 1) as u32
                }
            }
        })
        .collect();
    Partition::from_assignments(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TomographySession;

    #[test]
    fn dataset_specs_parse() {
        for d in Dataset::PAPER_SETS {
            let spec = ScenarioSpec::parse(d.id()).unwrap();
            assert_eq!(spec, ScenarioSpec::Dataset(d));
            assert_eq!(spec.id(), d.id());
        }
        assert_eq!(ScenarioSpec::parse("2x2").unwrap(), ScenarioSpec::Dataset(Dataset::Small2x2));
        assert_eq!(ScenarioSpec::parse("b-t").unwrap(), ScenarioSpec::Dataset(Dataset::BT));
    }

    #[test]
    fn synthetic_specs_round_trip_through_id() {
        for text in [
            "fat-tree:2x2x4",
            "fat-tree:2x2x4:8:2",
            "star:3x8",
            "star:3x8:0.1:2",
            "wan:3x4",
            "wan:4x8:0.25",
            "wan:16x64:0.5:20",
        ] {
            let spec = ScenarioSpec::parse(text).unwrap();
            let id = spec.id();
            assert_eq!(ScenarioSpec::parse(&id).unwrap(), spec, "id {id} of {text}");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for text in [
            "",
            "bogus",
            "fat-tree:2x2",
            "star:0x4",
            "wan:2x2:-1",
            "wan:2x2:abc",
            "star:3x8:0.5:0",
            "wan:2x2:0.5:0",
            "wan:2x2:0.5:20:9",
            "wan:2x2+churn",
            "wan:2x2+churn=1.5",
            "wan:2x2+churn=-0.1",
            "wan:2x2+crash=0.5",
            "wan:2x2+churn=nope",
        ] {
            assert!(ScenarioSpec::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn oversized_specs_are_rejected_naming_the_limit() {
        for (text, limit) in [
            ("wan:100000x100000", "MAX_SCENARIO_HOSTS = 65536"),
            ("fat-tree:100000x100000x100000", "MAX_SCENARIO_HOSTS = 65536"),
            // The host-count product overflows usize.
            ("wan:4294967296x4294967296", "MAX_SCENARIO_HOSTS = 65536"),
            ("star:65536x1", "MAX_SCENARIO_HOSTS = 65536"),
            ("star:1x1:0.25:65536", "MAX_SCENARIO_HOSTS = 65536"),
            // Few enough hosts, but too many switches and routers to route
            // over: 65,537 and 4,161.
            ("wan:32768x2", "MAX_SCENARIO_SWITCHES = 4096"),
            ("fat-tree:64x64x1", "MAX_SCENARIO_SWITCHES = 4096"),
        ] {
            let err = ScenarioSpec::parse(text).expect_err(text);
            assert!(err.contains(limit), "{text:?}: {err}");
        }
        // The limits themselves are allowed.
        assert!(ScenarioSpec::parse("wan:1x65536").is_ok());
        assert!(ScenarioSpec::parse("star:4095x16:0.25:16").is_ok());
    }

    #[test]
    fn reliability_suffixes_parse_and_round_trip() {
        let spec = ScenarioSpec::parse("wan:16x64:0.5:20+churn=0.05+xtraffic=0.2").unwrap();
        match &spec {
            ScenarioSpec::Perturbed { base, reliability } => {
                assert!(matches!(**base, ScenarioSpec::Wan { .. }));
                assert_eq!(reliability.churn, 0.05);
                assert_eq!(reliability.xtraffic, 0.2);
                assert_eq!(reliability.degrade, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Canonical id round-trips, in fixed suffix order.
        assert_eq!(spec.id(), "wan:16x64:0.5:20+churn=0.05+xtraffic=0.2");
        assert_eq!(ScenarioSpec::parse(&spec.id()).unwrap(), spec);
        // Suffix order in the input does not matter; the id is canonical.
        let reordered = ScenarioSpec::parse("wan:16x64:0.5:20+xtraffic=0.2+churn=0.05").unwrap();
        assert_eq!(reordered, spec);
        // Datasets and presets take suffixes too.
        let d = ScenarioSpec::parse("G-T+churn=0.1").unwrap();
        assert_eq!(d.id(), "G-T+churn=0.1");
        let p = ScenarioSpec::parse("wan-512+degrade=0.3").unwrap();
        assert_eq!(p.id(), "wan:16x32:0.5+degrade=0.3");
        // All-zero suffixes normalize back to the base.
        let z = ScenarioSpec::parse("wan:2x2+churn=0").unwrap();
        assert_eq!(z, ScenarioSpec::parse("wan:2x2").unwrap());
        // Suffixes on a churned preset override its intensities.
        let o = ScenarioSpec::parse("wan-512-churn+churn=0.5").unwrap();
        match o {
            ScenarioSpec::Perturbed { reliability, .. } => {
                assert_eq!(reliability.churn, 0.5);
                assert_eq!(reliability.xtraffic, 0.2, "preset xtraffic kept");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perturbed_build_carries_the_reliability_config() {
        let s = ScenarioSpec::parse("star:3x4:0.1:4+churn=0.2+xtraffic=0.1").unwrap().build();
        assert_eq!(s.id, "star:3x4:0.1:4+churn=0.2+xtraffic=0.1");
        assert_eq!(s.reliability.churn, 0.2);
        assert_eq!(s.reliability.xtraffic, 0.1);
        // Same network and ground truth as the unperturbed base.
        let base = ScenarioSpec::parse("star:3x4:0.1:4").unwrap().build();
        assert_eq!(base.reliability, btt_netsim::perturb::ReliabilityCfg::default());
        assert_eq!(s.ground_truth, base.ground_truth);
        assert_eq!(s.hosts.len(), base.hosts.len());
    }

    #[test]
    fn scale_presets_resolve_to_their_canonical_specs() {
        for (name, spec) in SCALE_PRESETS {
            let from_name = ScenarioSpec::parse(name).unwrap();
            let from_spec = ScenarioSpec::parse(spec).unwrap();
            assert_eq!(from_name, from_spec, "preset {name}");
            // Preset ids are canonical spec strings, not the shorthand.
            assert_eq!(ScenarioSpec::parse(&from_name.id()).unwrap(), from_name);
        }
        // The headline presets really are 1024 hosts.
        let ft = ScenarioSpec::parse("fat-tree-1k").unwrap();
        assert_eq!(ScenarioSpec::parse("FAT-TREE-1K").unwrap(), ft, "case-insensitive");
        match ft {
            ScenarioSpec::FatTree(f) => {
                assert_eq!(f.pods * f.racks_per_pod * f.hosts_per_rack, 1024)
            }
            other => panic!("unexpected {other:?}"),
        }
        match ScenarioSpec::parse("edge-1k").unwrap() {
            ScenarioSpec::Wan { sites, hosts, access_mbps, .. } => {
                assert_eq!(sites * hosts, 1024);
                assert_eq!(access_mbps, 20.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wan_access_speed_shapes_the_network() {
        // Low-access WAN: hosts are limited by their own 20 Mb/s links, not
        // the WAN segment, for a single flow.
        let slow = ScenarioSpec::parse("wan:2x4:0.5:20").unwrap().build();
        assert_eq!(slow.num_hosts(), 8);
        let a = slow.hosts[0];
        let b = slow.hosts[4];
        let mut net = btt_netsim::engine::SimNet::new(slow.grid.topology.clone());
        let f = net.start_flow(a, b, None, 0);
        net.advance(1.0);
        let got = net.take_delivered(f);
        let expect = btt_netsim::units::Bandwidth::from_mbps(20.0).bytes_per_sec();
        assert!((got - expect).abs() / expect < 0.05, "{got} vs {expect}");
    }

    #[test]
    fn parse_list_splits_on_commas() {
        let l = ScenarioSpec::parse_list("B, G-T ,star:2x4").unwrap();
        assert_eq!(l.len(), 3);
        assert!(ScenarioSpec::parse_list("B,nope").is_err());
    }

    #[test]
    fn fat_tree_truth_granularity_follows_oversubscription() {
        let rack = ScenarioSpec::parse("fat-tree:2x2x3:4:1").unwrap().build();
        assert_eq!(rack.ground_truth.num_clusters(), 4, "edge-bound: one per rack");
        let pod = ScenarioSpec::parse("fat-tree:2x2x3:1:4").unwrap().build();
        assert_eq!(pod.ground_truth.num_clusters(), 2, "core-bound: one per pod");
        let flat = ScenarioSpec::parse("fat-tree:2x2x3:1:1").unwrap().build();
        assert_eq!(flat.ground_truth.num_clusters(), 1, "non-blocking: single cluster");
    }

    #[test]
    fn star_and_wan_truths() {
        let star = ScenarioSpec::parse("star:3x4:0.25:2").unwrap().build();
        assert_eq!(star.num_hosts(), 14);
        assert_eq!(star.ground_truth.num_clusters(), 4, "hub + 3 arms");
        let wan = ScenarioSpec::parse("wan:3x4").unwrap().build();
        assert_eq!(wan.num_hosts(), 12);
        assert_eq!(wan.ground_truth.num_clusters(), 3);
        let open = ScenarioSpec::parse("wan:2x2:2").unwrap().build();
        assert_eq!(open.ground_truth.num_clusters(), 1, "ratio ≥ 1: no bottleneck");
    }

    #[test]
    fn synthetic_scenario_recovers_its_truth() {
        // End-to-end sanity: a severe star bottleneck is recovered by the
        // paper's method on a small file in a few iterations. (A hub much
        // smaller than the arms gets merged into one, the same effect as the
        // paper's small B-T cluster in §IV-C, so keep the hub arm-sized.)
        // (Seed-sensitive at this 16-host size: a single misranked host can
        // cost ~0.16 oNMI. Seed 3 converges under the current engine's RNG
        // draw order; the robustness across seeds is covered by the
        // sweep-level tests.)
        let scenario = ScenarioSpec::parse("star:3x4:0.1:4").unwrap().build();
        let report = TomographySession::over(scenario).iterations(6).pieces(256).seed(3).run();
        assert_eq!(report.scenario_id, "star:3x4:0.1:4");
        assert!(report.last().onmi > 0.99, "oNMI {}", report.last().onmi);
        assert_eq!(report.final_partition.num_clusters(), 4);
    }
}
