//! A NetPIPE-style point-to-point bandwidth prober (Snell, Mikler &
//! Gustafson 1996) — the tool the paper uses for its calibration numbers
//! (§II-C, §IV-A) and as the low-variance contrast to the BitTorrent metric
//! in Fig. 5.

use crate::cost::MeasurementCost;
use btt_netsim::engine::SimNet;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::units::Bandwidth;
use std::sync::Arc;

/// Outcome of a NetPIPE measurement between one pair.
#[derive(Debug, Clone)]
pub struct NetpipeResult {
    /// Peak streaming bandwidth observed.
    pub bandwidth: Bandwidth,
    /// Per-repetition throughput samples (Mb/s) — for variance analysis.
    pub samples_mbps: Vec<f64>,
    /// Measurement bill.
    pub cost: MeasurementCost,
}

impl NetpipeResult {
    /// Sample mean in Mb/s.
    pub fn mean_mbps(&self) -> f64 {
        self.samples_mbps.iter().sum::<f64>() / self.samples_mbps.len().max(1) as f64
    }

    /// Sample standard deviation in Mb/s.
    pub fn stddev_mbps(&self) -> f64 {
        let n = self.samples_mbps.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_mbps();
        let var =
            self.samples_mbps.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }
}

/// Streams between `a` and `b` for `reps` repetitions of `secs_per_rep`
/// seconds each, on an otherwise idle network, and reports the achieved
/// bandwidth. This is the saturation measurement of the paper's Fig. 2,
/// step 1.
pub fn netpipe(
    routes: &Arc<RouteTable>,
    a: NodeId,
    b: NodeId,
    reps: usize,
    secs_per_rep: f64,
) -> NetpipeResult {
    assert!(reps >= 1 && secs_per_rep > 0.0);
    let mut net = SimNet::with_routes(routes.clone());
    let mut samples = Vec::with_capacity(reps);
    let mut bytes = 0.0;
    for _ in 0..reps {
        let f = net.start_flow(a, b, None, 0);
        net.advance(secs_per_rep);
        let got = net.take_delivered(f);
        net.stop_flow(f);
        bytes += got;
        samples.push(Bandwidth::from_bytes_per_sec(got / secs_per_rep).mbps());
    }
    let peak = samples.iter().copied().fold(0.0f64, f64::max);
    NetpipeResult {
        bandwidth: Bandwidth::from_mbps(peak),
        samples_mbps: samples,
        cost: MeasurementCost {
            sim_seconds: reps as f64 * secs_per_rep,
            bytes_moved: bytes,
            probes: reps,
        },
    }
}

/// The classic NetPIPE block-size sweep: round-trip bounded transfers of
/// increasing size; small blocks are latency-bound, large blocks approach
/// the streaming bandwidth.
pub fn block_size_sweep(
    routes: &Arc<RouteTable>,
    a: NodeId,
    b: NodeId,
    block_sizes: &[f64],
) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(block_sizes.len());
    for &size in block_sizes {
        assert!(size > 0.0);
        let mut net = SimNet::with_routes(routes.clone());
        let t0 = net.time();
        net.start_flow(a, b, Some(size), 1);
        let done = net.run_bounded_to_completion(3600.0);
        assert_eq!(done.len(), 1, "probe must complete");
        let elapsed = done[0].at - t0;
        let mbps = Bandwidth::from_bytes_per_sec(size / elapsed.max(1e-12)).mbps();
        out.push((size, mbps));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::grid5000::Grid5000;

    fn bordeaux_pair() -> (Arc<RouteTable>, NodeId, NodeId, NodeId) {
        let g = Grid5000::builder().bordeaux(2, 0, 2).flat_site("toulouse", 2).build();
        let routes = Arc::new(RouteTable::new(g.topology.clone()));
        let bp = &g.sites[0].clusters[0].1;
        let tl = &g.sites[1].clusters[0].1;
        (routes, bp[0], bp[1], tl[0])
    }

    /// §IV-A: intra-cluster ≈ 890 Mb/s, inter-site ≈ 787 Mb/s.
    #[test]
    fn reproduces_paper_calibration_numbers() {
        let (routes, a, b, t) = bordeaux_pair();
        let local = netpipe(&routes, a, b, 3, 1.0);
        assert!((local.bandwidth.mbps() - 890.0).abs() < 10.0, "{}", local.bandwidth);
        let wan = netpipe(&routes, a, t, 3, 1.0);
        assert!((wan.bandwidth.mbps() - 787.0).abs() < 10.0, "{}", wan.bandwidth);
        assert!(wan.bandwidth.mbps() < local.bandwidth.mbps());
    }

    /// §II-C: NetPIPE's distribution is dense around the link rate — the
    /// variance contrast to the BitTorrent metric's Fig. 5 histogram.
    #[test]
    fn variance_is_tiny() {
        let (routes, a, b, _) = bordeaux_pair();
        let r = netpipe(&routes, a, b, 10, 0.5);
        assert_eq!(r.samples_mbps.len(), 10);
        assert!(r.stddev_mbps() < 0.01 * r.mean_mbps(), "stddev {}", r.stddev_mbps());
    }

    #[test]
    fn cost_is_accounted() {
        let (routes, a, b, _) = bordeaux_pair();
        let r = netpipe(&routes, a, b, 4, 0.25);
        assert!((r.cost.sim_seconds - 1.0).abs() < 1e-9);
        assert_eq!(r.cost.probes, 4);
        assert!(r.cost.bytes_moved > 0.0);
    }

    #[test]
    fn sweep_rises_to_streaming_rate() {
        let (routes, a, b, _) = bordeaux_pair();
        let sizes = [16.0 * 1024.0, 1024.0 * 1024.0, 64.0 * 1024.0 * 1024.0];
        let sweep = block_size_sweep(&routes, a, b, &sizes);
        assert_eq!(sweep.len(), 3);
        // Monotone non-decreasing with block size; large block near 890.
        assert!(sweep[0].1 <= sweep[1].1 && sweep[1].1 <= sweep[2].1, "{sweep:?}");
        assert!((sweep[2].1 - 890.0).abs() < 20.0, "{sweep:?}");
        // Small 16 KiB blocks are latency-bound: visibly below line rate.
        assert!(sweep[0].1 < 0.95 * sweep[2].1, "{sweep:?}");
    }
}
