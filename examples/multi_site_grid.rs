//! The paper's four-site experiment (§IV-D, Fig. 12): Bordeaux, Grenoble,
//! Toulouse and Lyon over the Renater backbone, 16 nodes each. Recovers the
//! four site clusters and writes the Fig.-12-style Kamada–Kawai figure.
//!
//! ```sh
//! cargo run --release --example multi_site_grid
//! # then e.g.:  neato -n2 -Tpng bgtl.dot -o bgtl.png   (if Graphviz is around)
//! ```

use bittorrent_tomography::prelude::*;
use std::fs;

fn main() {
    let report =
        TomographySession::new(Dataset::BGTL).pieces(4_000).iterations(15).seed(2012).run();

    println!("{}", convergence_table(&report));
    let scenario = Dataset::BGTL.build();
    println!("{}", cluster_listing(&report, &scenario.labels));

    // Fig.-12 rendering: KK layout over inverse-weight distances, shapes by
    // ground truth, top half of edges drawn.
    let graph = metric_graph(&report.campaign.metric);
    let distances = inverse_weight_distances(&graph);
    let positions = kamada_kawai(&distances, 2012, KamadaKawaiConfig::default());
    let figure = render(
        &graph,
        &positions,
        &scenario.labels,
        &scenario.ground_truth,
        RenderOptions::default(),
    );
    fs::write("bgtl.dot", to_dot(&figure, "bgtl")).expect("write DOT");
    fs::write("bgtl.svg", to_svg(&figure, "dataset B-G-T-L")).expect("write SVG");
    println!("wrote bgtl.dot and bgtl.svg");

    // The paper notes Lyon (the Renater hub) lands centrally in the layout.
    // `scenario.hosts` lists the grid's sites in order, so each site's
    // positions are the next run of its host count.
    let all = centroid_all(&positions);
    let mut rest = &positions[..];
    for site in &scenario.grid.sites {
        let (pts, tail) = rest.split_at(site.all().len());
        rest = tail;
        let c = centroid_all(pts);
        println!("site {:9} centroid distance from layout centre: {:.1}", site.site, c.dist(all));
    }
}

fn centroid_all(pts: &[Point2]) -> Point2 {
    let n = pts.len() as f64;
    Point2::new(pts.iter().map(|p| p.x).sum::<f64>() / n, pts.iter().map(|p| p.y).sum::<f64>() / n)
}
