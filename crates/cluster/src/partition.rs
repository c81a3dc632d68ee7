//! Node partitions (non-overlapping clusterings).

use serde::{Deserialize, Serialize};

/// A partition of nodes `0..n` into clusters `0..num_clusters`.
///
/// Cluster ids are always dense (every id below `num_clusters` is used).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    assign: Vec<u32>,
    num_clusters: usize,
}

impl Partition {
    /// Every node in its own cluster.
    pub fn singletons(n: usize) -> Self {
        Partition { assign: (0..n as u32).collect(), num_clusters: n }
    }

    /// All nodes in one cluster.
    pub fn trivial(n: usize) -> Self {
        Partition { assign: vec![0; n], num_clusters: if n > 0 { 1 } else { 0 } }
    }

    /// From raw assignments; cluster ids are renumbered densely in order of
    /// first appearance.
    pub fn from_assignments(raw: &[u32]) -> Self {
        let mut remap: Vec<Option<u32>> = Vec::new();
        let mut assign = Vec::with_capacity(raw.len());
        let mut next = 0u32;
        let max = raw.iter().copied().max().map_or(0, |m| m as usize + 1);
        remap.resize(max, None);
        for &c in raw {
            let slot = &mut remap[c as usize];
            let id = match slot {
                Some(id) => *id,
                None => {
                    let id = next;
                    *slot = Some(id);
                    next += 1;
                    id
                }
            };
            assign.push(id);
        }
        Partition { assign, num_clusters: next as usize }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True for the empty partition.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Cluster id of node `v`.
    #[inline]
    pub fn cluster_of(&self, v: usize) -> u32 {
        self.assign[v]
    }

    /// The raw assignment slice.
    pub fn assignments(&self) -> &[u32] {
        &self.assign
    }

    /// Member lists per cluster.
    pub fn clusters(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_clusters];
        for (v, &c) in self.assign.iter().enumerate() {
            out[c as usize].push(v as u32);
        }
        out
    }

    /// Cluster sizes.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.num_clusters];
        for &c in &self.assign {
            out[c as usize] += 1;
        }
        out
    }

    /// Composes two levels: `self` partitions nodes into groups, `coarser`
    /// partitions those groups. Returns the partition of nodes into the
    /// coarser clusters (Louvain level flattening).
    pub fn project(&self, coarser: &Partition) -> Partition {
        assert_eq!(self.num_clusters, coarser.len(), "level size mismatch");
        let raw: Vec<u32> = self.assign.iter().map(|&g| coarser.cluster_of(g as usize)).collect();
        Partition::from_assignments(&raw)
    }

    /// True when both partitions group nodes identically (up to relabeling).
    pub fn same_clustering(&self, other: &Partition) -> bool {
        if self.len() != other.len() || self.num_clusters != other.num_clusters {
            return false;
        }
        // Dense renumbering by first appearance makes labels canonical.
        Partition::from_assignments(&self.assign).assign
            == Partition::from_assignments(&other.assign).assign
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_trivial() {
        let s = Partition::singletons(4);
        assert_eq!(s.num_clusters(), 4);
        let t = Partition::trivial(4);
        assert_eq!(t.num_clusters(), 1);
        assert_eq!(t.sizes(), vec![4]);
        assert_eq!(Partition::trivial(0).num_clusters(), 0);
    }

    #[test]
    fn renumbering_is_dense_and_order_stable() {
        let p = Partition::from_assignments(&[7, 7, 2, 9, 2]);
        assert_eq!(p.assignments(), &[0, 0, 1, 2, 1]);
        assert_eq!(p.num_clusters(), 3);
        assert_eq!(p.sizes(), vec![2, 2, 1]);
    }

    #[test]
    fn clusters_round_trip() {
        let p = Partition::from_assignments(&[0, 1, 0, 2]);
        let cs = p.clusters();
        assert_eq!(cs, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn project_composes_levels() {
        // 6 nodes -> 3 groups -> 2 super-groups.
        let fine = Partition::from_assignments(&[0, 0, 1, 1, 2, 2]);
        let coarse = Partition::from_assignments(&[0, 0, 1]);
        let flat = fine.project(&coarse);
        assert_eq!(flat.assignments(), &[0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn same_clustering_ignores_labels() {
        let a = Partition::from_assignments(&[0, 0, 1, 1]);
        let b = Partition::from_assignments(&[5, 5, 3, 3]);
        let c = Partition::from_assignments(&[0, 1, 0, 1]);
        assert!(a.same_clustering(&b));
        assert!(!a.same_clustering(&c));
    }
}
