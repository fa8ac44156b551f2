//! The physical world: node positions, unit-disk connectivity, motion and
//! crash status.
//!
//! Geometric worlds derive links through a uniform spatial hash grid
//! ([`crate::geo`]): every link re-derivation is restricted to the ≤ 9
//! cells around the affected node, so per-step cost scales with local
//! density instead of the network size. The golden fingerprints of the
//! `engine_equivalence` suite pin the link-change sequences, and the unit
//! tests compare the adjacency with a brute-force all-pairs unit-disk
//! oracle.

use crate::geo::{CsrAdjacency, Grid};
use crate::ids::NodeId;

/// A point in the 2D plane.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Position {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

impl From<(f64, f64)> for Position {
    fn from((x, y): (f64, f64)) -> Self {
        Position { x, y }
    }
}

/// Ongoing smooth motion of one node.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Motion {
    pub dest: Position,
    /// Distance covered per movement step.
    pub step_len: f64,
    /// Guards against stale `MoveStep` events after crash/teleport.
    pub epoch: u64,
}

/// The state of the physical world: where every node is, who is moving, who
/// has crashed, and which links currently exist.
///
/// Connectivity follows the unit-disk model: a link exists between two live
/// positions iff their distance is at most the radio range. Because positions
/// only change when a node moves, the paper's assumption that *links never
/// change between static nodes* holds by construction.
#[derive(Clone, Debug)]
pub struct World {
    radio_range: f64,
    positions: Vec<Position>,
    moving: Vec<Option<Motion>>,
    crashed: Vec<bool>,
    /// Adjacency sets, kept sorted for deterministic iteration.
    adj: Vec<Vec<NodeId>>,
    /// Spatial index over `positions`; `None` iff this is an explicit-graph
    /// world, whose links were given directly instead of being derived
    /// from positions (such worlds are immutable: no movement).
    grid: Option<Grid>,
    /// Candidate peers examined by [`World::relocate`] since construction —
    /// a deterministic, machine-independent measure of link-update cost
    /// (O(local density) per step, not `n`).
    scanned: u64,
    /// Active partition cut, as a side mask: links between nodes whose
    /// mask bits differ are suppressed. `None` = no partition in force.
    cut: Option<Vec<bool>>,
    /// Links the active cut severed, as `(outside, inside)` pairs — the
    /// restoration list for explicit worlds, whose links cannot be
    /// re-derived from geometry.
    severed: Vec<(NodeId, NodeId)>,
}

/// A change to the link set caused by a node's position update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkChange {
    /// A link formed between the two nodes.
    Up(NodeId, NodeId),
    /// The link between the two nodes broke.
    Down(NodeId, NodeId),
}

impl World {
    /// Create a world with the given positions; links are derived from the
    /// unit-disk rule immediately (this is the initial topology, established
    /// without LinkUp notifications).
    pub fn new(radio_range: f64, positions: Vec<Position>) -> World {
        let n = positions.len();
        let grid = Grid::new(radio_range, &positions);
        // One candidate query per node; each in-range candidate pair is
        // seen from both sides, so no cross-wiring pass is needed.
        let mut adj = vec![Vec::new(); n];
        let mut cand = Vec::new();
        for (i, row) in adj.iter_mut().enumerate() {
            let me = NodeId(i as u32);
            cand.clear();
            grid.near(positions[i], &mut cand);
            *row = cand
                .iter()
                .copied()
                .filter(|&j| j != me && positions[i].distance(positions[j.index()]) <= radio_range)
                .collect();
            row.sort_unstable();
        }
        World {
            radio_range,
            positions,
            moving: vec![None; n],
            crashed: vec![false; n],
            adj,
            grid: Some(grid),
            scanned: 0,
            cut: None,
            severed: Vec::new(),
        }
    }

    /// Create a world whose links are given *explicitly* instead of being
    /// derived from geometry — for experiments on topologies that unit
    /// disks cannot embed (stars, expanders, adversarial graphs). Nodes are
    /// placed on a synthetic far-apart line so geometry never interferes.
    ///
    /// Explicit worlds are immutable: movement is rejected (crashes are
    /// fine — a crash does not change links).
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an endpoint ≥ `n`.
    pub fn from_adjacency(n: usize, edges: &[(u32, u32)]) -> World {
        let mut world = World {
            radio_range: 0.0,
            positions: (0..n)
                .map(|i| Position {
                    x: i as f64 * 1e6,
                    y: 0.0,
                })
                .collect(),
            moving: vec![None; n],
            crashed: vec![false; n],
            adj: vec![Vec::new(); n],
            grid: None,
            scanned: 0,
            cut: None,
            severed: Vec::new(),
        };
        for &(a, b) in edges {
            assert_ne!(a, b, "self-loop");
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            insert_sorted(&mut world.adj[a as usize], NodeId(b));
            insert_sorted(&mut world.adj[b as usize], NodeId(a));
        }
        world
    }

    /// Whether this world's links were given explicitly (immutable
    /// topology).
    pub fn is_explicit(&self) -> bool {
        self.grid.is_none()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of `n`.
    pub fn position(&self, n: NodeId) -> Position {
        self.positions[n.index()]
    }

    /// Whether `n` is currently moving.
    pub fn is_moving(&self, n: NodeId) -> bool {
        self.moving[n.index()].is_some()
    }

    /// Whether `n` has crashed.
    pub fn is_crashed(&self, n: NodeId) -> bool {
        self.crashed[n.index()]
    }

    /// Current neighbors of `n`, sorted by ID.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adj[n.index()]
    }

    /// An immutable CSR snapshot of the whole adjacency (sorted rows,
    /// checked in debug builds). Bulk consumers — BFS, edge extraction,
    /// protocol seeding — should take this instead of re-collecting
    /// per-node `Vec`s.
    pub fn csr_snapshot(&self) -> CsrAdjacency {
        CsrAdjacency::from_lists(&self.adj)
    }

    /// Whether a link currently exists between `a` and `b`.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Maximum node degree in the current topology (the paper's δ).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Candidate peers examined by [`World::relocate`] so far — a
    /// deterministic cost counter used by `lme bench scale` to show the
    /// grid path's per-step work tracks local density, not `n`.
    pub fn candidates_examined(&self) -> u64 {
        self.scanned
    }

    /// Hop distance between `a` and `b` in the current communication graph,
    /// or `None` if disconnected. Used by failure-locality probes.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[a.index()] = 0;
        queue.push_back(a);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if v == b {
                        return Some(dist[v.index()]);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }

    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.positions[a.index()].distance(self.positions[b.index()]) <= self.radio_range
    }

    pub(crate) fn motion(&self, n: NodeId) -> Option<&Motion> {
        self.moving[n.index()].as_ref()
    }

    pub(crate) fn begin_motion(&mut self, n: NodeId, dest: Position, step_len: f64) -> u64 {
        assert!(
            !self.is_explicit(),
            "explicit-graph worlds are immutable: movement rejected"
        );
        let epoch = self.moving[n.index()].as_ref().map_or(0, |m| m.epoch) + 1;
        self.moving[n.index()] = Some(Motion {
            dest,
            step_len,
            epoch,
        });
        epoch
    }

    pub(crate) fn end_motion(&mut self, n: NodeId) {
        self.moving[n.index()] = None;
    }

    pub(crate) fn crash(&mut self, n: NodeId) {
        self.crashed[n.index()] = true;
        // A node does not change its location after it fails.
        self.moving[n.index()] = None;
    }

    /// Mark `n` crashed from *outside* the engine — used by hosts (the
    /// live runtime's trace validator) that maintain a mirror world while
    /// replaying a recorded execution through hooks. Same semantics as an
    /// engine crash: the node never moves again and its links stay up.
    pub fn mark_crashed(&mut self, n: NodeId) {
        self.crash(n);
    }

    pub(crate) fn recover(&mut self, n: NodeId) {
        // Links were never taken down by the crash, so clearing the flag
        // is all the physical world needs; the engine owns the rejoin
        // handshake (link flaps, fresh protocol incarnation).
        self.crashed[n.index()] = false;
    }

    /// Clear the crashed flag of `n` from *outside* the engine — the
    /// recovery counterpart of [`World::mark_crashed`] for host-side
    /// mirror worlds.
    pub fn mark_recovered(&mut self, n: NodeId) {
        self.recover(n);
    }

    /// Move `n` one motion step toward its destination; returns the link
    /// changes caused and whether the destination has been reached.
    pub(crate) fn step_motion(&mut self, n: NodeId) -> (Vec<LinkChange>, bool) {
        let motion = self.moving[n.index()].clone().expect("no motion to step");
        let pos = self.positions[n.index()];
        let remaining = pos.distance(motion.dest);
        let arrived = remaining <= motion.step_len;
        let new_pos = if arrived {
            motion.dest
        } else {
            let f = motion.step_len / remaining;
            Position {
                x: pos.x + (motion.dest.x - pos.x) * f,
                y: pos.y + (motion.dest.y - pos.y) * f,
            }
        };
        let changes = self.relocate(n, new_pos);
        (changes, arrived)
    }

    /// Whether the active partition cut suppresses the link `a — b`.
    pub(crate) fn cut_blocks(&self, a: NodeId, b: NodeId) -> bool {
        self.cut
            .as_ref()
            .is_some_and(|mask| mask[a.index()] != mask[b.index()])
    }

    /// Whether a partition cut is currently in force.
    pub fn is_partitioned(&self) -> bool {
        self.cut.is_some()
    }

    /// Impose a partition: sever every existing link crossing the cut
    /// between `side` and the rest of the network, and suppress new ones
    /// until [`World::clear_cut`]. Replaces any cut already in force
    /// (healing it first, in the same batch of changes).
    pub(crate) fn apply_cut(&mut self, side: &[NodeId]) -> Vec<LinkChange> {
        let mut changes = self.clear_cut();
        let mut mask = vec![false; self.len()];
        for &s in side {
            mask[s.index()] = true;
        }
        // Only existing links can be severed, so the adjacency (O(Σ degree))
        // is scanned, in both geometric and explicit worlds. Outer index
        // ascending over sorted rows restricted to `j > i` yields the
        // lexicographic (i, j) order.
        let mut cross = Vec::new();
        for i in 0..self.len() {
            for &j in &self.adj[i] {
                if j.index() > i && mask[i] != mask[j.index()] {
                    cross.push((NodeId(i as u32), j));
                }
            }
        }
        for (a, b) in cross {
            remove_sorted(&mut self.adj[a.index()], b);
            remove_sorted(&mut self.adj[b.index()], a);
            // Record (outside, inside) for heal-time ordering.
            let pair = if mask[a.index()] { (b, a) } else { (a, b) };
            self.severed.push(pair);
            changes.push(LinkChange::Down(a, b));
        }
        self.cut = Some(mask);
        changes
    }

    /// Lift the active partition, if any. Links are restored as fresh
    /// incarnations: geometric worlds re-derive every cross-cut link from
    /// the *current* positions (nodes may have moved during the cut),
    /// explicit worlds restore exactly the severed list. Each `Up` pair is
    /// ordered `(outside, inside)` so the partitioned-off side rejoins as
    /// the "moving" side of the paper's link-creation symmetry breaking.
    pub(crate) fn clear_cut(&mut self) -> Vec<LinkChange> {
        let Some(mask) = self.cut.take() else {
            return Vec::new();
        };
        let mut changes = Vec::new();
        if self.is_explicit() {
            for (outside, inside) in std::mem::take(&mut self.severed) {
                insert_sorted(&mut self.adj[outside.index()], inside);
                insert_sorted(&mut self.adj[inside.index()], outside);
                changes.push(LinkChange::Up(outside, inside));
            }
        } else {
            // A healed link must join nodes within range, so candidates
            // come from the 3×3 cell neighborhood of each node. Ascending
            // outer index over a sorted candidate row restricted to
            // `j > i` yields the lexicographic (i, j) order.
            self.severed.clear();
            let mut cand = Vec::new();
            for i in 0..self.len() {
                let a = NodeId(i as u32);
                cand.clear();
                let grid = self.grid.as_ref().expect("grid mode");
                grid.near(self.positions[i], &mut cand);
                cand.sort_unstable();
                cand.dedup();
                for &b in &cand {
                    if b.index() <= i || mask[i] == mask[b.index()] {
                        continue;
                    }
                    if self.in_range(a, b) && !self.linked(a, b) {
                        insert_sorted(&mut self.adj[i], b);
                        insert_sorted(&mut self.adj[b.index()], a);
                        let pair = if mask[i] { (b, a) } else { (a, b) };
                        changes.push(LinkChange::Up(pair.0, pair.1));
                    }
                }
            }
        }
        changes
    }

    /// Set `n`'s position and recompute its incident links; returns the
    /// resulting link changes with peers sorted by ID. This is the
    /// teleport primitive; smooth motion goes through the engine's
    /// `StartMove` command.
    ///
    /// # Panics
    ///
    /// Panics on explicit-graph worlds, whose topology is immutable.
    pub fn relocate(&mut self, n: NodeId, pos: Position) -> Vec<LinkChange> {
        let Some(grid) = self.grid.as_mut() else {
            panic!("explicit-graph worlds are immutable: movement rejected");
        };
        grid.relocate(n, pos);
        self.positions[n.index()] = pos;
        // A link can only break with a *current* neighbor and only form
        // with a node in range of the new position — i.e. inside the 3×3
        // cell neighborhood. The sorted union of both sets, walked in
        // ascending ID order, visits every peer whose link can change.
        let mut cand = Vec::new();
        grid.near(pos, &mut cand);
        cand.extend_from_slice(&self.adj[n.index()]);
        cand.sort_unstable();
        cand.dedup();
        self.scanned += cand.len() as u64;
        let mut changes = Vec::new();
        for peer in cand {
            if peer != n {
                self.diff_link(n, peer, &mut changes);
            }
        }
        changes
    }

    /// Re-evaluate the single link `n — peer` against geometry and the
    /// active cut, updating the adjacency and appending any change.
    fn diff_link(&mut self, n: NodeId, peer: NodeId, changes: &mut Vec<LinkChange>) {
        let now_linked = self.in_range(n, peer) && !self.cut_blocks(n, peer);
        let was_linked = self.linked(n, peer);
        if now_linked && !was_linked {
            insert_sorted(&mut self.adj[n.index()], peer);
            insert_sorted(&mut self.adj[peer.index()], n);
            changes.push(LinkChange::Up(n, peer));
        } else if !now_linked && was_linked {
            remove_sorted(&mut self.adj[n.index()], peer);
            remove_sorted(&mut self.adj[peer.index()], n);
            changes.push(LinkChange::Down(n, peer));
        }
    }
}

fn insert_sorted(v: &mut Vec<NodeId>, x: NodeId) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

fn remove_sorted(v: &mut Vec<NodeId>, x: NodeId) {
    if let Ok(i) = v.binary_search(&x) {
        v.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> World {
        World::new(
            1.5,
            (0..n)
                .map(|i| Position {
                    x: i as f64,
                    y: 0.0,
                })
                .collect(),
        )
    }

    /// Brute-force all-pairs unit-disk oracle: `w`'s adjacency must be
    /// exactly the pairs within radio range that the active cut does not
    /// separate (crashes leave links alone).
    fn assert_unit_disk(w: &World) {
        for a in (0..w.len() as u32).map(NodeId) {
            let want: Vec<NodeId> = (0..w.len() as u32)
                .map(NodeId)
                .filter(|&b| {
                    b != a
                        && w.position(a).distance(w.position(b)) <= w.radio_range
                        && !w.cut_blocks(a, b)
                })
                .collect();
            assert_eq!(
                w.neighbors(a),
                want,
                "adjacency of {a:?} differs from the oracle"
            );
        }
    }

    #[test]
    fn initial_links_follow_unit_disk() {
        let w = line(4);
        assert!(w.linked(NodeId(0), NodeId(1)));
        assert!(!w.linked(NodeId(0), NodeId(2)));
        assert_eq!(w.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(w.max_degree(), 2);
    }

    #[test]
    fn relocation_matches_the_unit_disk_oracle() {
        let mut w = line(6);
        assert_unit_disk(&w);
        for (node, x, y) in [
            (5, 0.5, 0.5),
            (0, 9.0, 0.0),
            // Land exactly on a cell edge (x = 2 · cell ≈ 3.0).
            (0, 3.0, 0.0),
        ] {
            w.relocate(NodeId(node), Position { x, y });
            assert_unit_disk(&w);
        }
    }

    #[test]
    fn cut_heal_and_crash_match_the_unit_disk_oracle() {
        let mut w = line(7);
        w.apply_cut(&[NodeId(3), NodeId(4)]);
        assert_unit_disk(&w);
        w.relocate(NodeId(4), Position { x: 0.5, y: 0.2 });
        assert_unit_disk(&w);
        w.crash(NodeId(2));
        assert_unit_disk(&w);
        w.clear_cut();
        assert_unit_disk(&w);
        w.apply_cut(&[NodeId(0)]);
        assert_unit_disk(&w);
        w.recover(NodeId(2));
        w.apply_cut(&[NodeId(6)]);
        assert_unit_disk(&w);
        w.clear_cut();
        assert_unit_disk(&w);
    }

    #[test]
    fn csr_snapshot_matches_neighbors() {
        let w = line(5);
        let csr = w.csr_snapshot();
        assert_eq!(csr.len(), 5);
        for i in 0..5u32 {
            assert_eq!(csr.neighbors(NodeId(i)), w.neighbors(NodeId(i)));
        }
        assert_eq!(
            csr.edges().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
    }

    #[test]
    fn relocation_scans_locally() {
        // 40 nodes spread far apart: a relocate should examine a handful
        // of candidates, not all n − 1.
        let positions: Vec<Position> = (0..40)
            .map(|i| Position {
                x: f64::from(i) * 10.0,
                y: 0.0,
            })
            .collect();
        let mut w = World::new(1.5, positions);
        w.relocate(NodeId(0), Position { x: 1.0, y: 0.0 });
        assert!(
            w.candidates_examined() <= 4,
            "scanned {}",
            w.candidates_examined()
        );
        assert!(!w.is_explicit());
    }

    #[test]
    fn hop_distance_bfs() {
        let w = line(5);
        assert_eq!(w.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(w.hop_distance(NodeId(2), NodeId(2)), Some(0));
        let far = World::new(
            1.0,
            vec![Position { x: 0.0, y: 0.0 }, Position { x: 10.0, y: 0.0 }],
        );
        assert_eq!(far.hop_distance(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn relocate_reports_changes() {
        let mut w = line(3);
        // Move p2 next to p0: link to p1 kept (distance 1.5 -> within), link to p0 created.
        let changes = w.relocate(NodeId(2), Position { x: 0.5, y: 0.0 });
        assert!(changes.contains(&LinkChange::Up(NodeId(2), NodeId(0))));
        assert!(w.linked(NodeId(0), NodeId(2)));
        // Move p2 far away: both links drop.
        let changes = w.relocate(NodeId(2), Position { x: 100.0, y: 0.0 });
        assert_eq!(changes.len(), 2);
        assert!(matches!(changes[0], LinkChange::Down(_, _)));
        assert!(w.neighbors(NodeId(2)).is_empty());
    }

    #[test]
    fn motion_steps_toward_destination() {
        let mut w = line(2);
        w.begin_motion(NodeId(1), Position { x: 5.0, y: 0.0 }, 1.0);
        let mut arrived = false;
        let mut guard = 0;
        while !arrived {
            let (_, done) = w.step_motion(NodeId(1));
            arrived = done;
            guard += 1;
            assert!(guard < 100, "motion never completes");
        }
        assert_eq!(w.position(NodeId(1)), Position { x: 5.0, y: 0.0 });
    }

    #[test]
    fn explicit_world_from_adjacency() {
        let w = World::from_adjacency(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(w.is_explicit());
        assert_eq!(w.neighbors(NodeId(0)).len(), 4);
        assert_eq!(w.neighbors(NodeId(1)), &[NodeId(0)]);
        assert!(
            !w.linked(NodeId(1), NodeId(2)),
            "a true star: leaves unlinked"
        );
        assert_eq!(w.hop_distance(NodeId(1), NodeId(2)), Some(2));
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn explicit_world_rejects_motion() {
        let mut w = World::from_adjacency(2, &[(0, 1)]);
        w.begin_motion(NodeId(0), Position { x: 1.0, y: 0.0 }, 1.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn explicit_world_rejects_self_loops() {
        let _ = World::from_adjacency(2, &[(1, 1)]);
    }

    #[test]
    fn cut_severs_and_heal_restores_geometric_links() {
        let mut w = line(4);
        let down = w.apply_cut(&[NodeId(2), NodeId(3)]);
        assert_eq!(down, vec![LinkChange::Down(NodeId(1), NodeId(2))]);
        assert!(w.is_partitioned());
        assert!(!w.linked(NodeId(1), NodeId(2)));
        assert!(w.linked(NodeId(0), NodeId(1)), "intra-side links survive");
        assert!(w.linked(NodeId(2), NodeId(3)));
        let up = w.clear_cut();
        // (outside, inside): node 1 is outside the cut side, node 2 inside.
        assert_eq!(up, vec![LinkChange::Up(NodeId(1), NodeId(2))]);
        assert!(!w.is_partitioned());
        assert!(w.linked(NodeId(1), NodeId(2)));
    }

    #[test]
    fn cut_suppresses_links_formed_by_movement() {
        let mut w = line(4);
        w.apply_cut(&[NodeId(3)]);
        // Node 3 walks right next to node 0: the cut must keep them apart.
        let changes = w.relocate(NodeId(3), Position { x: 0.5, y: 0.0 });
        assert!(
            changes.iter().all(|c| matches!(c, LinkChange::Down(_, _))),
            "no cross-cut link may form during a partition: {changes:?}"
        );
        assert!(!w.linked(NodeId(0), NodeId(3)));
        // After the heal the geometry wins again (from current positions).
        let up = w.clear_cut();
        assert!(up.contains(&LinkChange::Up(NodeId(0), NodeId(3))));
        assert!(w.linked(NodeId(0), NodeId(3)));
    }

    #[test]
    fn explicit_world_heals_exactly_the_severed_links() {
        let mut w = World::from_adjacency(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let down = w.apply_cut(&[NodeId(2), NodeId(3)]);
        assert_eq!(down.len(), 2);
        assert!(!w.linked(NodeId(1), NodeId(2)));
        assert!(!w.linked(NodeId(0), NodeId(3)));
        assert!(w.linked(NodeId(2), NodeId(3)));
        let up = w.clear_cut();
        assert_eq!(up.len(), 2);
        assert!(w.linked(NodeId(1), NodeId(2)));
        assert!(w.linked(NodeId(0), NodeId(3)));
    }

    #[test]
    fn reapplying_a_cut_replaces_the_old_one() {
        let mut w = line(5);
        w.apply_cut(&[NodeId(0)]);
        assert!(!w.linked(NodeId(0), NodeId(1)));
        let changes = w.apply_cut(&[NodeId(4)]);
        assert!(changes.contains(&LinkChange::Up(NodeId(1), NodeId(0))));
        assert!(changes.contains(&LinkChange::Down(NodeId(3), NodeId(4))));
        assert!(w.linked(NodeId(0), NodeId(1)));
        assert!(!w.linked(NodeId(3), NodeId(4)));
    }

    #[test]
    fn crash_cancels_motion() {
        let mut w = line(2);
        w.begin_motion(NodeId(1), Position { x: 5.0, y: 0.0 }, 1.0);
        w.crash(NodeId(1));
        assert!(w.is_crashed(NodeId(1)));
        assert!(!w.is_moving(NodeId(1)));
    }
}
