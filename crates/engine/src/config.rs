//! Robot configurations: which robot stands on which node.

use dispersion_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::robot::all_robots;
use crate::RobotId;

/// A configuration `Conf_r = {pos_r(a_i)}`: the placement of the *live*
/// robots on the nodes of an `n`-node graph (Section II). Crashed robots
/// are simply absent.
///
/// Internally Vec-backed and counting: positions are indexed by robot ID
/// and per-node multiplicities are maintained incrementally, so the
/// queries the simulator's round loop needs — [`node_of`], [`count_at`],
/// [`occupied_count`], [`is_dispersed`] — are all `O(1)` and
/// allocation-free.
///
/// [`node_of`]: Configuration::node_of
/// [`count_at`]: Configuration::count_at
/// [`occupied_count`]: Configuration::occupied_count
/// [`is_dispersed`]: Configuration::is_dispersed
#[derive(Clone, Debug)]
pub struct Configuration {
    n: usize,
    /// `pos[i]` is the node of robot `i+1` (`None` = absent/crashed).
    pos: Vec<Option<NodeId>>,
    /// Live robots.
    live: usize,
    /// `counts[v]` = robots currently at node `v`.
    counts: Vec<u32>,
    /// Nodes with `counts ≥ 1`.
    occupied: usize,
    /// Nodes with `counts ≥ 2`.
    multiplicity: usize,
}

impl Configuration {
    /// Creates a configuration from explicit `(robot, node)` placements on
    /// an `n`-node graph.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range or a robot appears twice.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (RobotId, NodeId)>) -> Self {
        let mut cfg = Configuration {
            n,
            pos: Vec::new(),
            live: 0,
            counts: vec![0; n],
            occupied: 0,
            multiplicity: 0,
        };
        for (r, v) in pairs {
            assert!(v.index() < n, "node {v} out of range for n={n}");
            let i = (r.get() - 1) as usize;
            if i >= cfg.pos.len() {
                cfg.pos.resize(i + 1, None);
            }
            assert!(cfg.pos[i].is_none(), "robot {r} placed twice");
            cfg.pos[i] = Some(v);
            cfg.live += 1;
            cfg.add_count(v);
        }
        cfg
    }

    fn add_count(&mut self, v: NodeId) {
        let c = &mut self.counts[v.index()];
        *c += 1;
        match *c {
            1 => self.occupied += 1,
            2 => self.multiplicity += 1,
            _ => {}
        }
    }

    fn sub_count(&mut self, v: NodeId) {
        let c = &mut self.counts[v.index()];
        *c -= 1;
        match *c {
            0 => self.occupied -= 1,
            1 => self.multiplicity -= 1,
            _ => {}
        }
    }

    /// The *rooted* initial configuration: all `k` robots on one node
    /// (Section II calls a configuration with exactly one multiplicity node
    /// rooted; all-on-one-node is its extreme form, used by the lower
    /// bound).
    ///
    /// ```
    /// use dispersion_engine::Configuration;
    /// use dispersion_graph::NodeId;
    ///
    /// let c = Configuration::rooted(10, 4, NodeId::new(3));
    /// assert_eq!(c.occupied_count(), 1);
    /// assert_eq!(c.count_at(NodeId::new(3)), 4);
    /// assert!(!c.is_dispersed());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn rooted(n: usize, k: usize, root: NodeId) -> Self {
        assert!(root.index() < n, "root out of range");
        Configuration::from_pairs(n, all_robots(k).map(|r| (r, root)))
    }

    /// A seeded arbitrary placement of `k` robots on an `n`-node graph.
    /// Guarantees at least one multiplicity node when `k ≥ 2` and
    /// `clustered` is true (robots 1 and 2 share a node).
    pub fn random(n: usize, k: usize, seed: u64, clustered: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs = Vec::with_capacity(k);
        let mut first_node = None;
        for r in all_robots(k) {
            let v = NodeId::new(rng.random_range(0..n as u32));
            let v = if clustered && r.get() == 2 {
                first_node.unwrap_or(v)
            } else {
                v
            };
            if r.get() == 1 {
                first_node = Some(v);
            }
            pairs.push((r, v));
        }
        Configuration::from_pairs(n, pairs)
    }

    /// Number of nodes in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of live robots.
    pub fn robot_count(&self) -> usize {
        self.live
    }

    /// Whether no live robots remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Position of a live robot, or `None` if absent/crashed.
    pub fn node_of(&self, r: RobotId) -> Option<NodeId> {
        self.pos.get((r.get() - 1) as usize).copied().flatten()
    }

    /// All live robots at `v`, sorted ascending by ID.
    pub fn robots_at(&self, v: NodeId) -> Vec<RobotId> {
        self.iter()
            .filter(|&(_, w)| w == v)
            .map(|(r, _)| r)
            .collect()
    }

    /// Number of live robots at `v` (`count(v)` in the paper).
    pub fn count_at(&self, v: NodeId) -> usize {
        self.counts[v.index()] as usize
    }

    /// The smallest-ID robot at `v` (the node's representative, supplying
    /// the node's identity in Algorithm 1), if any.
    pub fn min_robot_at(&self, v: NodeId) -> Option<RobotId> {
        self.iter().find(|&(_, w)| w == v).map(|(r, _)| r)
    }

    /// Occupied nodes, ascending, with their robot counts.
    pub fn occupancy(&self) -> Vec<(NodeId, usize)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (NodeId::new(v as u32), c as usize))
            .collect()
    }

    /// Occupied nodes only, ascending.
    pub fn occupied_nodes(&self) -> Vec<NodeId> {
        self.occupancy().into_iter().map(|(v, _)| v).collect()
    }

    /// Number of occupied nodes (`α` in the paper).
    pub fn occupied_count(&self) -> usize {
        self.occupied
    }

    /// Boolean indicator over node indices: `true` where occupied.
    pub fn occupied_indicator(&self) -> Vec<bool> {
        self.counts.iter().map(|&c| c > 0).collect()
    }

    /// Multiplicity nodes (two or more robots), ascending.
    pub fn multiplicity_nodes(&self) -> Vec<NodeId> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= 2)
            .map(|(v, _)| NodeId::new(v as u32))
            .collect()
    }

    /// Whether the live robots form a dispersion configuration: no
    /// multiplicity node (Definition 1 / Definition 6).
    pub fn is_dispersed(&self) -> bool {
        self.multiplicity == 0
    }

    /// Iterator over live `(robot, node)` placements in ID order.
    pub fn iter(&self) -> impl Iterator<Item = (RobotId, NodeId)> + '_ {
        self.pos
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (RobotId::new(i as u32 + 1), v)))
    }

    /// Moves robot `r` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not live or `v` is out of range.
    pub fn set_position(&mut self, r: RobotId, v: NodeId) {
        assert!(v.index() < self.n, "node out of range");
        let from = self
            .pos
            .get((r.get() - 1) as usize)
            .copied()
            .flatten()
            .expect("robot not live");
        if from == v {
            return;
        }
        self.sub_count(from);
        self.add_count(v);
        self.pos[(r.get() - 1) as usize] = Some(v);
    }

    /// Removes robot `r` (crash). Returns its last position, or `None` if
    /// it was already absent.
    pub fn remove(&mut self, r: RobotId) -> Option<NodeId> {
        let slot = self.pos.get_mut((r.get() - 1) as usize)?;
        let v = slot.take()?;
        self.live -= 1;
        self.sub_count(v);
        Some(v)
    }
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        // Position vectors may differ in trailing-`None` length after
        // crashes; compare the live placements, not the raw buffers.
        self.n == other.n && self.live == other.live && self.iter().eq(other.iter())
    }
}

impl Eq for Configuration {}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RobotId {
        RobotId::new(i)
    }
    fn v(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn rooted_has_single_occupied_node() {
        let c = Configuration::rooted(10, 4, v(3));
        assert_eq!(c.robot_count(), 4);
        assert_eq!(c.occupied_count(), 1);
        assert_eq!(c.count_at(v(3)), 4);
        assert_eq!(c.multiplicity_nodes(), vec![v(3)]);
        assert!(!c.is_dispersed());
        assert_eq!(c.min_robot_at(v(3)), Some(r(1)));
    }

    #[test]
    fn dispersion_detection() {
        let c = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(1)), (r(3), v(4))]);
        assert!(c.is_dispersed());
        let c2 = Configuration::from_pairs(5, [(r(1), v(0)), (r(2), v(0))]);
        assert!(!c2.is_dispersed());
    }

    #[test]
    fn occupancy_sorted_with_counts() {
        let c =
            Configuration::from_pairs(6, [(r(1), v(5)), (r(2), v(2)), (r(3), v(5)), (r(4), v(0))]);
        assert_eq!(c.occupancy(), vec![(v(0), 1), (v(2), 1), (v(5), 2)]);
        assert_eq!(c.occupied_nodes(), vec![v(0), v(2), v(5)]);
        assert_eq!(
            c.occupied_indicator(),
            vec![true, false, true, false, false, true]
        );
    }

    #[test]
    fn robots_at_sorted() {
        let c = Configuration::from_pairs(3, [(r(3), v(1)), (r(1), v(1)), (r(2), v(0))]);
        assert_eq!(c.robots_at(v(1)), vec![r(1), r(3)]);
        assert_eq!(c.count_at(v(2)), 0);
        assert_eq!(c.min_robot_at(v(2)), None);
    }

    #[test]
    fn set_and_remove() {
        let mut c = Configuration::from_pairs(4, [(r(1), v(0)), (r(2), v(0))]);
        c.set_position(r(2), v(3));
        assert_eq!(c.node_of(r(2)), Some(v(3)));
        assert!(c.is_dispersed());
        assert_eq!(c.remove(r(2)), Some(v(3)));
        assert_eq!(c.remove(r(2)), None);
        assert_eq!(c.robot_count(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn counts_track_through_moves_and_crashes() {
        let mut c = Configuration::from_pairs(4, [(r(1), v(0)), (r(2), v(0)), (r(3), v(1))]);
        assert_eq!(c.occupied_count(), 2);
        assert!(!c.is_dispersed());
        // Moving onto an occupied node keeps α, creates a new multiplicity.
        c.set_position(r(3), v(0));
        assert_eq!(c.occupied_count(), 1);
        assert_eq!(c.count_at(v(0)), 3);
        // Self-move is a no-op.
        c.set_position(r(3), v(0));
        assert_eq!(c.count_at(v(0)), 3);
        c.set_position(r(2), v(2));
        c.set_position(r(3), v(3));
        assert!(c.is_dispersed());
        assert_eq!(c.occupied_count(), 3);
        c.remove(r(1));
        assert_eq!(c.occupied_count(), 2);
        assert!(c.is_dispersed());
    }

    #[test]
    fn equality_ignores_crash_holes() {
        let mut a = Configuration::from_pairs(4, [(r(1), v(0)), (r(3), v(2))]);
        let b = Configuration::from_pairs(4, [(r(1), v(0)), (r(3), v(2))]);
        assert_eq!(a, b);
        let mut c = Configuration::from_pairs(4, [(r(1), v(0)), (r(3), v(2)), (r(4), v(3))]);
        assert_ne!(a, c);
        c.remove(r(4));
        // `c` has a trailing hole where robot 4 was; still equal.
        assert_eq!(a, c);
        a.remove(r(3));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_robot_rejected() {
        let _ = Configuration::from_pairs(3, [(r(1), v(0)), (r(1), v(1))]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_rejected() {
        let _ = Configuration::from_pairs(3, [(r(1), v(7))]);
    }

    #[test]
    fn random_clustered_has_multiplicity() {
        for seed in 0..20 {
            let c = Configuration::random(8, 5, seed, true);
            assert_eq!(c.robot_count(), 5);
            assert!(!c.is_dispersed(), "seed {seed} produced dispersed start");
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Configuration::random(10, 6, 9, false);
        let b = Configuration::random(10, 6, 9, false);
        assert_eq!(a, b);
    }
}
