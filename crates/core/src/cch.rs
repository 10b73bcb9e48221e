//! Customizable contraction hierarchies (CCH) — the epoch-customizable
//! index tier behind the serving substrate.
//!
//! A classic weight-dependent CH prunes shortcuts with witness searches
//! against one metric, so a live-traffic tick invalidates the whole index
//! (a witness path can be slowed or closed arbitrarily, and the pruned
//! shortcut has no replacement). This module splits the index the
//! CRP/CCH way instead:
//!
//! * [`ChTopology`] — the **metric-independent** half, built once per
//!   city at startup: a contraction order over the graph *structure*
//!   (a fill-in count steers the order; no shortcut is ever pruned)
//!   plus the full elimination fill-in, stored as undirected *arcs*
//!   `{lo, hi}` with `rank[lo] < rank[hi]`, the
//!   upward-arc CSR the queries walk (each node's slice sorted by
//!   upper-endpoint rank descending, so an arc is found by binary
//!   search), and the precomputed **lower triangle** list the
//!   customization relaxes. A triangle `lo – mid – hi` stores only its
//!   apex arc `{lo, hi}`: its side arcs are two positions in `mid`'s
//!   upward slice. The build uses no hash table.
//! * [`ChMetric`] — the cheap per-epoch half: two weights per arc
//!   (`up` = lo→hi, `down` = hi→lo) computed by
//!   [`ChTopology::customize`] in one linear pass over the original
//!   edges (a `CLOSED` edge simply contributes nothing) followed by one
//!   pass over the triangles in middle-rank order, recording for each
//!   arc the middle vertex of the winning two-hop for unpacking. No
//!   heap, no witness searches — re-customizing after a traffic tick
//!   costs milliseconds where rebuilding a witness-pruned CH costs
//!   seconds.
//!
//! Because every fill-in arc is kept, basic customization is exact for
//! **any** non-negative metric: overlay factors ≥ 1.0, category slowdowns,
//! and `CLOSED` edges (mapped to [`INFINITY`], which saturates through
//! the triangle relaxations) all yield exact shortest-path distances,
//! verified against Dijkstra in the tests.
//!
//! Queries come in two shapes:
//!
//! * [`ChTopology::shortest_path`] / [`ChTopology::distance`] — the
//!   classic bidirectional upward search with recursive triangle
//!   unpacking back to original edges.
//! * [`ChTopology::phast_distances`] — one-to-all: an upward search from
//!   the root followed by a single linear sweep over the arcs in
//!   descending upper-endpoint rank (PHAST). The serving substrate uses
//!   two of these to rebuild the exact forward/backward distance arrays
//!   the techniques consume, settling only the upward cones instead of
//!   the whole graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use arp_roadnet::csr::RoadNetwork;
use arp_roadnet::ids::{EdgeId, NodeId};
use arp_roadnet::weight::{Cost, Weight, WeightView, CLOSED, INFINITY};

use crate::budget::{SearchBudget, CHECK_INTERVAL};
use crate::error::CoreError;
use crate::metrics::SearchStats;
use crate::path::Path;
use crate::search::Direction;

/// Sentinel for "no arc" / "no triangle": the arc weight comes straight
/// from an original edge.
const NONE: u32 = u32::MAX;

/// The metric-independent half of a customizable CH: contraction order,
/// fill-in arc set, upward-arc CSR and the lower-triangle list.
///
/// Built once per network by [`ChTopology::build`]; any number of
/// [`ChMetric`]s (one per traffic epoch) can be customized against it
/// concurrently — the topology is never mutated after construction.
pub struct ChTopology {
    num_nodes: usize,
    num_edges: usize,
    /// Contraction rank per node; higher = contracted later.
    rank: Vec<u32>,
    /// Nodes in rank order (the inverse of `rank`).
    order: Vec<u32>,
    /// Arc endpoints, `rank[arc_lo[a]] < rank[arc_hi[a]]`, sorted by
    /// upper-endpoint rank **descending** so the PHAST sweep is a plain
    /// forward iteration.
    arc_lo: Vec<u32>,
    arc_hi: Vec<u32>,
    /// CSR over arcs keyed by their lower endpoint (the upward
    /// adjacency both query searches walk).
    up_first: Vec<u32>,
    up_arcs: Vec<u32>,
    /// Apex arc `{lo, hi}` of every lower triangle `lo – mid – hi`,
    /// grouped by middle vertex in rank order: relaxing them in order
    /// makes one pass sufficient ([`ChTopology::customize`]). The side
    /// arcs `{mid, lo}` and `{mid, hi}` are not stored; they are read
    /// from the middle vertex's upward slice.
    tri_apex: Vec<u32>,
    /// Per original edge: the arc it maps onto (`NONE` for self-loops)
    /// and whether it runs lo→hi (`up`) or hi→lo (`down`).
    edge_arc: Vec<u32>,
    edge_is_up: Vec<bool>,
}

/// One customized metric: per-arc `up`/`down` costs for a single weight
/// column (traffic epoch), plus the unpacking data (`via_*` = the
/// middle vertex of the triangle whose lower path won, `best_*` = the
/// best original edge when none did).
///
/// Stamped with the epoch of the column it was customized from; the
/// serving tier's `IndexManager` only hands a metric to a request pinned
/// to the **same** epoch, so a stale metric can never leak into a newer
/// response.
pub struct ChMetric {
    epoch: u64,
    up: Vec<Cost>,
    down: Vec<Cost>,
    via_up: Vec<u32>,
    via_down: Vec<u32>,
    best_up: Vec<EdgeId>,
    best_down: Vec<EdgeId>,
}

impl ChMetric {
    /// Stamps the metric with the traffic epoch of the weight column it
    /// was customized from (0 = base weights).
    pub fn with_epoch(mut self, epoch: u64) -> ChMetric {
        self.epoch = epoch;
        self
    }

    /// The traffic epoch this metric was customized for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl ChTopology {
    /// Builds the topology: a contraction order over the graph structure
    /// plus the full elimination fill-in. Witness searches never prune a
    /// shortcut, since that would bake the build-time metric into the
    /// topology.
    pub fn build(net: &RoadNetwork) -> ChTopology {
        let n = net.num_nodes();
        let (rank, order, mut pairs) = contraction_order(net);

        // PHAST order: upper-endpoint rank descending (deterministic
        // tie-break on the lower endpoint's rank).
        pairs.sort_unstable_by_key(|&(lo, hi)| (Reverse(rank[hi as usize]), rank[lo as usize]));
        let m = pairs.len();
        let (arc_lo, arc_hi): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();

        // Upward CSR keyed by the lower endpoint; each slice inherits the
        // arc order, so it is sorted by upper-endpoint rank descending.
        let mut up_first = vec![0u32; n + 1];
        for &lo in &arc_lo {
            up_first[lo as usize + 1] += 1;
        }
        for i in 0..n {
            up_first[i + 1] += up_first[i];
        }
        let mut cursor = up_first.clone();
        let mut up_arcs = vec![0u32; m];
        for (i, &lo) in arc_lo.iter().enumerate() {
            up_arcs[cursor[lo as usize] as usize] = i as u32;
            cursor[lo as usize] += 1;
        }

        let mut topo = ChTopology {
            num_nodes: n,
            num_edges: net.num_edges(),
            rank,
            order,
            arc_lo,
            arc_hi,
            up_first,
            up_arcs,
            tri_apex: Vec::new(),
            edge_arc: vec![NONE; net.num_edges()],
            edge_is_up: vec![false; net.num_edges()],
        };
        topo.tri_apex = topo.triangle_apexes();

        // Map every original edge onto its arc.
        for e in net.edges() {
            let (t, h) = (net.tail(e).0, net.head(e).0);
            if t != h {
                topo.edge_arc[e.index()] = topo.arc_between(t, h);
                topo.edge_is_up[e.index()] = topo.rank[t as usize] < topo.rank[h as usize];
            }
        }
        topo
    }

    /// The upward-CSR slots of `v`.
    fn up_range(&self, v: u32) -> Range<usize> {
        self.up_first[v as usize] as usize..self.up_first[v as usize + 1] as usize
    }

    /// The upward arcs of `v`, sorted by upper-endpoint rank descending.
    fn up_slice(&self, v: u32) -> &[u32] {
        &self.up_arcs[self.up_range(v)]
    }

    /// The arc joining `x` and `y`, found by binary search in the
    /// lower-ranked endpoint's upward slice.
    fn arc_between(&self, x: u32, y: u32) -> u32 {
        let (lo, hi) = if self.rank[x as usize] < self.rank[y as usize] {
            (x, y)
        } else {
            (y, x)
        };
        let r = self.rank[hi as usize];
        let slice = self.up_slice(lo);
        let i = slice.partition_point(|&a| self.rank[self.arc_hi[a as usize] as usize] > r);
        debug_assert_eq!(self.arc_hi[slice[i] as usize], hi, "no arc {{{x}, {y}}}");
        slice[i]
    }

    /// The apex arc of every lower triangle, grouped by middle vertex in
    /// rank order. For a middle vertex `v` with upward slice `s`, the
    /// triangle at positions `i < j` of `s` has side arcs `s[i]` (to the
    /// higher apex endpoint) and `s[j]` (to the lower one); triangles are
    /// listed `j`-major, the order [`ChTopology::customize`] walks.
    fn triangle_apexes(&self) -> Vec<u32> {
        let count: usize = (0..self.num_nodes as u32)
            .map(|v| {
                let k = self.up_slice(v).len();
                k * k.saturating_sub(1) / 2
            })
            .sum();
        // Upper-endpoint rank per upward-CSR slot, so the searches below
        // scan one contiguous array.
        let slot_rank: Vec<u32> = self
            .up_arcs
            .iter()
            .map(|&a| self.rank[self.arc_hi[a as usize] as usize])
            .collect();
        let mut apexes = Vec::with_capacity(count);
        for &v in &self.order {
            let side = self.up_range(v);
            for j in 1..side.len() {
                // The higher endpoints of `side[..j]` appear in the same
                // (rank-descending) order in the lower endpoint's slice,
                // so each search resumes where the last one ended.
                let lo_slots = self.up_range(self.arc_hi[self.up_arcs[side.start + j] as usize]);
                let lo_ranks = &slot_rank[lo_slots.clone()];
                let mut at = 0;
                for &r in &slot_rank[side.start..side.start + j] {
                    at = gallop(lo_ranks, at, r);
                    debug_assert_eq!(lo_ranks[at], r, "missing apex arc");
                    apexes.push(self.up_arcs[lo_slots.start + at]);
                }
            }
        }
        debug_assert_eq!(apexes.len(), count);
        apexes
    }

    /// Number of arcs (original adjacencies + elimination fill-in).
    pub fn num_arcs(&self) -> usize {
        self.arc_lo.len()
    }

    /// Number of lower triangles the customization relaxes.
    pub fn num_triangles(&self) -> usize {
        self.tri_apex.len()
    }

    /// Contraction rank of a node.
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v.index()]
    }

    /// Whether this topology was built for a network of `net`'s shape.
    pub fn matches(&self, net: &RoadNetwork) -> bool {
        self.num_nodes == net.num_nodes() && self.num_edges == net.num_edges()
    }

    /// Customizes a metric for one weight column (traffic epoch).
    ///
    /// Two linear passes: originals first (`CLOSED` contributes nothing,
    /// leaving the arc at [`INFINITY`] unless a parallel edge or a
    /// triangle fills it), then the triangles in middle-rank order —
    /// each arc's side arcs are final before the arc itself is relaxed,
    /// so one pass yields the exact all-pairs-respecting arc costs for
    /// any non-negative metric.
    pub fn customize(&self, net: &RoadNetwork, weights: &[Weight]) -> Result<ChMetric, CoreError> {
        if weights.len() != self.num_edges {
            return Err(CoreError::WeightLengthMismatch {
                expected: self.num_edges,
                got: weights.len(),
            });
        }
        let m = self.arc_lo.len();
        let mut up = vec![INFINITY; m];
        let mut down = vec![INFINITY; m];
        let mut via_up = vec![NONE; m];
        let mut via_down = vec![NONE; m];
        let mut best_up = vec![EdgeId::INVALID; m];
        let mut best_down = vec![EdgeId::INVALID; m];

        // Edge ids ascend, and the comparison is strict: among equal-cost
        // parallel edges the smallest id wins, keeping unpacked paths
        // deterministic.
        for e in net.edges() {
            let a = self.edge_arc[e.index()];
            if a == NONE {
                continue;
            }
            let w = weights[e.index()];
            if w == CLOSED {
                continue;
            }
            let c = w as Cost;
            if self.edge_is_up[e.index()] {
                if c < up[a as usize] {
                    up[a as usize] = c;
                    best_up[a as usize] = e;
                }
            } else if c < down[a as usize] {
                down[a as usize] = c;
                best_down[a as usize] = e;
            }
        }

        // Triangles in the order `triangle_apexes` listed them: middle
        // vertex `v` by rank, then the lower side `s[j]`, then the higher
        // side `s[i]`, `i < j`.
        let mut t = 0;
        for &v in &self.order {
            let side = self.up_slice(v);
            for (j, &lo_side) in side.iter().enumerate().skip(1) {
                let (lo_side_up, lo_side_down) = (up[lo_side as usize], down[lo_side as usize]);
                let apexes = &self.tri_apex[t..t + j];
                t += j;
                for (&hi_side, &a) in side[..j].iter().zip(apexes) {
                    let (hi_side, a) = (hi_side as usize, a as usize);
                    // up(a): lo → v (down side of {v,lo}) → hi (up side
                    // of {v,hi}).
                    if lo_side_down != INFINITY && up[hi_side] != INFINITY {
                        let c = lo_side_down + up[hi_side];
                        if c < up[a] {
                            up[a] = c;
                            via_up[a] = v;
                        }
                    }
                    // down(a): hi → v → lo.
                    if down[hi_side] != INFINITY && lo_side_up != INFINITY {
                        let c = down[hi_side] + lo_side_up;
                        if c < down[a] {
                            down[a] = c;
                            via_down[a] = v;
                        }
                    }
                }
            }
        }

        Ok(ChMetric {
            epoch: 0,
            up,
            down,
            via_up,
            via_down,
            best_up,
            best_down,
        })
    }

    /// [`ChTopology::customize`] over any [`WeightView`]; the metric is
    /// stamped with the view's epoch.
    pub fn customize_view<V: WeightView + ?Sized>(
        &self,
        net: &RoadNetwork,
        view: &V,
    ) -> Result<ChMetric, CoreError> {
        Ok(self.customize(net, view.column())?.with_epoch(view.epoch()))
    }

    /// Exact one-to-all distances via PHAST: a budgeted upward search
    /// from `root`, then one linear sweep over the arcs in descending
    /// upper-endpoint rank. `Forward` yields `d(root → v)` for every
    /// `v`; `Backward` yields `d(v → root)`.
    ///
    /// Work is accounted into `stats`: upward heap pops count as
    /// settled nodes (that is the search frontier CH actually explores),
    /// sweep and upward relaxations as relaxed edges.
    pub fn phast_distances(
        &self,
        metric: &ChMetric,
        root: NodeId,
        direction: Direction,
        budget: &SearchBudget,
        stats: &mut SearchStats,
    ) -> Result<Vec<Cost>, CoreError> {
        if root.index() >= self.num_nodes {
            return Err(CoreError::InvalidNode(root));
        }
        if budget.interrupted() {
            return Err(CoreError::Interrupted);
        }
        let mut dist = vec![INFINITY; self.num_nodes];
        dist[root.index()] = 0;
        let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, root.0)));
        let mut pops_since_check: u64 = 0;
        while let Some(Reverse((d, v))) = heap.pop() {
            stats.heap_pops += 1;
            pops_since_check += 1;
            if pops_since_check == CHECK_INTERVAL {
                pops_since_check = 0;
                stats.budget_checks += 1;
                if budget.charge(CHECK_INTERVAL) {
                    return Err(CoreError::Interrupted);
                }
            }
            if d > dist[v as usize] {
                continue;
            }
            stats.settled += 1;
            for &ai in self.up_slice(v) {
                stats.relaxed += 1;
                let w = match direction {
                    Direction::Forward => metric.up[ai as usize],
                    Direction::Backward => metric.down[ai as usize],
                };
                if w == INFINITY {
                    continue;
                }
                let hi = self.arc_hi[ai as usize];
                let nd = d + w;
                if nd < dist[hi as usize] {
                    dist[hi as usize] = nd;
                    heap.push(Reverse((nd, hi)));
                }
            }
        }
        budget.charge(pops_since_check);

        // Downward sweep: arcs are pre-sorted by rank[hi] descending, so
        // dist[hi] is final when the arc is relaxed.
        for (ai, (&lo, &hi)) in self.arc_lo.iter().zip(&self.arc_hi).enumerate() {
            if ai % (CHECK_INTERVAL as usize * 8) == 0 && budget.interrupted() {
                return Err(CoreError::Interrupted);
            }
            stats.relaxed += 1;
            let dh = dist[hi as usize];
            if dh == INFINITY {
                continue;
            }
            let w = match direction {
                Direction::Forward => metric.down[ai],
                Direction::Backward => metric.up[ai],
            };
            if w == INFINITY {
                continue;
            }
            let nd = dh + w;
            if nd < dist[lo as usize] {
                dist[lo as usize] = nd;
            }
        }
        Ok(dist)
    }

    /// Exact shortest-path distance under `metric`, or `None` when
    /// unreachable or `source == target`.
    pub fn distance(&self, metric: &ChMetric, source: NodeId, target: NodeId) -> Option<Cost> {
        self.query(metric, source, target, &SearchBudget::unlimited())
            .ok()
            .flatten()
            .map(|(d, _, _, _)| d)
    }

    /// Exact shortest path under `metric`, unpacked to original edges.
    ///
    /// `weights` must be the column `metric` was customized from — it is
    /// only used to cost the returned [`Path`].
    pub fn shortest_path(
        &self,
        metric: &ChMetric,
        net: &RoadNetwork,
        weights: &[Weight],
        source: NodeId,
        target: NodeId,
    ) -> Result<Path, CoreError> {
        if source == target {
            return Err(CoreError::SameSourceTarget(source));
        }
        let Some((_, meet, pf, pb)) =
            self.query(metric, source, target, &SearchBudget::unlimited())?
        else {
            return Err(CoreError::Unreachable { source, target });
        };
        let mut edges = Vec::new();
        // Forward half: walk meet → source collecting upward arcs, then
        // unpack them source-first.
        let mut chain = Vec::new();
        let mut v = meet;
        while v != source.0 {
            let ai = pf[v as usize];
            debug_assert_ne!(ai, NONE);
            chain.push(ai);
            v = self.arc_lo[ai as usize];
        }
        for &ai in chain.iter().rev() {
            self.unpack_up(metric, ai, &mut edges);
        }
        // Backward half: each parent arc is travelled hi → lo.
        let mut v = meet;
        while v != target.0 {
            let ai = pb[v as usize];
            debug_assert_ne!(ai, NONE);
            self.unpack_down(metric, ai, &mut edges);
            v = self.arc_lo[ai as usize];
        }
        Ok(Path::from_edges(net, weights, edges))
    }

    /// Bidirectional upward search. `Ok(None)` when unreachable or
    /// `source == target`; otherwise `(distance, meeting node, forward
    /// parent arcs, backward parent arcs)`.
    #[allow(clippy::type_complexity)]
    fn query(
        &self,
        metric: &ChMetric,
        source: NodeId,
        target: NodeId,
        budget: &SearchBudget,
    ) -> Result<Option<(Cost, u32, Vec<u32>, Vec<u32>)>, CoreError> {
        if source.index() >= self.num_nodes {
            return Err(CoreError::InvalidNode(source));
        }
        if target.index() >= self.num_nodes {
            return Err(CoreError::InvalidNode(target));
        }
        if source == target {
            return Ok(None);
        }
        if budget.interrupted() {
            return Err(CoreError::Interrupted);
        }
        let n = self.num_nodes;
        let mut df = vec![INFINITY; n];
        let mut db = vec![INFINITY; n];
        let mut pf = vec![NONE; n];
        let mut pb = vec![NONE; n];
        df[source.index()] = 0;
        db[target.index()] = 0;
        let mut heap_f: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        let mut heap_b: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        heap_f.push(Reverse((0, source.0)));
        heap_b.push(Reverse((0, target.0)));
        let mut best = INFINITY;
        let mut meet = u32::MAX;
        let mut pops_since_check: u64 = 0;
        loop {
            let kf = heap_f.peek().map(|Reverse((d, _))| *d).unwrap_or(INFINITY);
            let kb = heap_b.peek().map(|Reverse((d, _))| *d).unwrap_or(INFINITY);
            if kf.min(kb) >= best {
                break;
            }
            pops_since_check += 1;
            if pops_since_check == CHECK_INTERVAL {
                pops_since_check = 0;
                if budget.charge(CHECK_INTERVAL) {
                    return Err(CoreError::Interrupted);
                }
            }
            let fwd_turn = kf <= kb && kf != INFINITY;
            let (heap, dist, other, parent, use_up) = if fwd_turn {
                (&mut heap_f, &mut df, &db, &mut pf, true)
            } else {
                (&mut heap_b, &mut db, &df, &mut pb, false)
            };
            let Some(Reverse((d, v))) = heap.pop() else {
                break;
            };
            if d > dist[v as usize] {
                continue;
            }
            let od = other[v as usize];
            if od != INFINITY && d + od < best {
                best = d + od;
                meet = v;
            }
            for &ai in self.up_slice(v) {
                let w = if use_up {
                    metric.up[ai as usize]
                } else {
                    metric.down[ai as usize]
                };
                if w == INFINITY {
                    continue;
                }
                let hi = self.arc_hi[ai as usize];
                let nd = d + w;
                if nd < dist[hi as usize] {
                    dist[hi as usize] = nd;
                    parent[hi as usize] = ai;
                    heap.push(Reverse((nd, hi)));
                }
            }
        }
        budget.charge(pops_since_check);
        if best == INFINITY {
            return Ok(None);
        }
        Ok(Some((best, meet, pf, pb)))
    }

    /// Unpacks the lo→hi traversal of an arc into original edges.
    fn unpack_up(&self, metric: &ChMetric, ai: u32, out: &mut Vec<EdgeId>) {
        let mid = metric.via_up[ai as usize];
        if mid == NONE {
            debug_assert!(!metric.best_up[ai as usize].is_invalid());
            out.push(metric.best_up[ai as usize]);
        } else {
            // lo → mid (down side of {mid,lo}), then mid → hi.
            let (lo, hi) = (self.arc_lo[ai as usize], self.arc_hi[ai as usize]);
            self.unpack_down(metric, self.arc_between(mid, lo), out);
            self.unpack_up(metric, self.arc_between(mid, hi), out);
        }
    }

    /// Unpacks the hi→lo traversal of an arc into original edges.
    fn unpack_down(&self, metric: &ChMetric, ai: u32, out: &mut Vec<EdgeId>) {
        let mid = metric.via_down[ai as usize];
        if mid == NONE {
            debug_assert!(!metric.best_down[ai as usize].is_invalid());
            out.push(metric.best_down[ai as usize]);
        } else {
            // hi → mid (down side of {mid,hi}), then mid → lo.
            let (lo, hi) = (self.arc_lo[ai as usize], self.arc_hi[ai as usize]);
            self.unpack_down(metric, self.arc_between(mid, hi), out);
            self.unpack_up(metric, self.arc_between(mid, lo), out);
        }
    }
}

/// The first index `p >= from` with `ranks[p] <= r` in a descending
/// `ranks`, found by exponential then binary search: cheap when `p` is
/// close to `from`, logarithmic when it is far.
fn gallop(ranks: &[u32], from: usize, r: u32) -> usize {
    let mut bound = 1;
    while from + bound < ranks.len() && ranks[from + bound] > r {
        bound *= 2;
    }
    let lo = from + bound / 2;
    let hi = (from + bound + 1).min(ranks.len());
    lo + ranks[lo..hi].partition_point(|&x| x > r)
}

/// Greedy fill-in contraction order over the undirected graph structure.
///
/// Returns each node's rank, the nodes in rank order, and one `(lo, hi)`
/// pair per arc: `{v, u}` for every `u` still adjacent to `v` when `v` is
/// contracted.
fn contraction_order(net: &RoadNetwork) -> (Vec<u32>, Vec<u32>, Vec<(u32, u32)>) {
    let n = net.num_nodes();
    let mut graph = EliminationGraph::new(net);
    let mut deleted = vec![0u32; n];
    let mut contracted = vec![false; n];
    let mut rank = vec![0u32; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut pairs: Vec<(u32, u32)> = Vec::new();

    // Edge difference (fill-in minus degree) plus the number of
    // already-contracted neighbours, lazily re-evaluated. The fill-in
    // count stands in for a witness search — it only steers the order,
    // never the shortcut set.
    let mut heap: BinaryHeap<Reverse<(i64, u32)>> = (0..n as u32)
        .map(|v| Reverse((graph.priority(v, &deleted), v)))
        .collect();
    while let Some(Reverse((p, v))) = heap.pop() {
        if contracted[v as usize] {
            continue;
        }
        let current = graph.priority(v, &deleted);
        if current > p {
            heap.push(Reverse((current, v)));
            continue;
        }
        let nbrs = graph.contract(v);
        for &u in &nbrs {
            deleted[u as usize] += 1;
            pairs.push((v, u));
        }
        contracted[v as usize] = true;
        rank[v as usize] = order.len() as u32;
        order.push(v);
    }
    (rank, order, pairs)
}

/// The undirected elimination graph during contraction. Each adjacency
/// list holds only the node's uncontracted neighbours, without
/// duplicates; set tests go through a stamped mark array instead of a
/// hash set.
struct EliminationGraph {
    adj: Vec<Vec<u32>>,
    mark: Vec<u32>,
    stamp: u32,
}

impl EliminationGraph {
    fn new(net: &RoadNetwork) -> EliminationGraph {
        let n = net.num_nodes();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Self-loops never matter.
        for e in net.edges() {
            let (t, h) = (net.tail(e).0, net.head(e).0);
            if t != h {
                adj[t as usize].push(h);
                adj[h as usize].push(t);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        EliminationGraph {
            adj,
            mark: vec![0; n],
            stamp: 0,
        }
    }

    /// Marks the neighbours of `v` with a fresh stamp and returns it.
    fn mark_neighbours(&mut self, v: u32) -> u32 {
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        for &u in &self.adj[v as usize] {
            self.mark[u as usize] = self.stamp;
        }
        self.stamp
    }

    /// `(fill - degree) * 4 + deleted[v]`, where `fill` counts the
    /// non-adjacent pairs among `v`'s neighbours.
    fn priority(&mut self, v: u32, deleted: &[u32]) -> i64 {
        let stamp = self.mark_neighbours(v);
        let nbrs = &self.adj[v as usize];
        let degree = nbrs.len() as i64;
        // Every adjacent neighbour pair is seen from both ends.
        let mut links = 0i64;
        for &a in nbrs {
            for &b in &self.adj[a as usize] {
                links += (self.mark[b as usize] == stamp) as i64;
            }
        }
        let fill = degree * (degree - 1) / 2 - links / 2;
        (fill - degree) * 4 + deleted[v as usize] as i64
    }

    /// Removes `v`, turns its neighbours into a clique (chordal fill-in)
    /// and returns them.
    fn contract(&mut self, v: u32) -> Vec<u32> {
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &u in &nbrs {
            let list = &mut self.adj[u as usize];
            if let Some(i) = list.iter().position(|&x| x == v) {
                list.swap_remove(i);
            }
        }
        for &a in &nbrs {
            let stamp = self.mark_neighbours(a);
            for &b in &nbrs {
                if b != a && self.mark[b as usize] != stamp {
                    self.adj[a as usize].push(b);
                }
            }
        }
        nbrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchSpace;
    use arp_roadnet::builder::{EdgeSpec, GraphBuilder};
    use arp_roadnet::category::RoadCategory;
    use arp_roadnet::geo::Point;

    fn grid(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..n {
            for x in 0..n {
                ids.push(b.add_node(Point::new(144.0 + x as f64 * 0.01, -37.0 - y as f64 * 0.01)));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + 1],
                        EdgeSpec::category(RoadCategory::Primary),
                    );
                }
                if y + 1 < n {
                    b.add_bidirectional(
                        ids[i],
                        ids[i + n],
                        EdgeSpec::category(RoadCategory::Secondary),
                    );
                }
            }
        }
        b.build()
    }

    fn assert_exact(net: &RoadNetwork, weights: &[Weight], topo: &ChTopology, metric: &ChMetric) {
        let mut ws = SearchSpace::new(net);
        let n = net.num_nodes() as u32;
        for s in (0..n).step_by(3) {
            for t in (0..n).step_by(4) {
                if s == t {
                    continue;
                }
                let expect = ws
                    .shortest_distance(net, weights, NodeId(s), NodeId(t))
                    .ok();
                assert_eq!(
                    topo.distance(metric, NodeId(s), NodeId(t)),
                    expect,
                    "{s} -> {t}"
                );
            }
        }
    }

    #[test]
    fn distances_match_dijkstra_on_base_weights() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_exact(&net, net.weights(), &topo, &metric);
    }

    #[test]
    fn recustomization_tracks_overlays_and_closures() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        // Per-edge overlay: every third edge slowed 3x.
        let mut overlay = net.weights().to_vec();
        for (i, w) in overlay.iter_mut().enumerate() {
            if i % 3 == 0 {
                *w = w.saturating_mul(3).min(u32::MAX - 1);
            }
        }
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_exact(&net, &overlay, &topo, &metric);
        // Closures on top: the same topology, another cheap customization.
        overlay[0] = CLOSED;
        overlay[7] = CLOSED;
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_exact(&net, &overlay, &topo, &metric);
    }

    #[test]
    fn closed_only_path_is_unreachable() {
        // 0 -> 1 -> 2, close the only edge into 2.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.01, 0.0));
        let d = b.add_node(Point::new(0.02, 0.0));
        b.add_edge(a, c, EdgeSpec::default());
        b.add_edge(c, d, EdgeSpec::default());
        let net = b.build();
        let topo = ChTopology::build(&net);
        let mut overlay = net.weights().to_vec();
        overlay[1] = CLOSED;
        let metric = topo.customize(&net, &overlay).unwrap();
        assert_eq!(topo.distance(&metric, NodeId(0), NodeId(2)), None);
        assert!(matches!(
            topo.shortest_path(&metric, &net, &overlay, NodeId(0), NodeId(2)),
            Err(CoreError::Unreachable { .. })
        ));
        // Reopening (a fresh customization on the restored column)
        // restores exactness — the topology never changed.
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_exact(&net, net.weights(), &topo, &metric);
    }

    #[test]
    fn unpacked_paths_are_valid_and_optimal() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let mut ws = SearchSpace::new(&net);
        for (s, t) in [(0u32, 35u32), (3, 30), (7, 28), (12, 23), (35, 0)] {
            let p = topo
                .shortest_path(&metric, &net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            assert!(p.validate(&net), "{s}->{t}");
            let d = ws
                .shortest_distance(&net, net.weights(), NodeId(s), NodeId(t))
                .unwrap();
            assert_eq!(p.cost_ms, d, "{s}->{t}");
        }
    }

    #[test]
    fn unpacked_paths_avoid_closed_edges() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        let mut overlay = net.weights().to_vec();
        // Close a handful of edges; every unpacked path must avoid them.
        for i in [0usize, 5, 11, 20] {
            overlay[i] = CLOSED;
        }
        let metric = topo.customize(&net, &overlay).unwrap();
        for (s, t) in [(0u32, 24u32), (4, 20), (2, 22)] {
            if let Ok(p) = topo.shortest_path(&metric, &net, &overlay, NodeId(s), NodeId(t)) {
                for e in &p.edges {
                    assert_ne!(overlay[e.index()], CLOSED, "path uses a closed edge");
                }
            }
        }
    }

    #[test]
    fn phast_matches_full_dijkstra_trees() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let mut ws = SearchSpace::new(&net);
        let mut stats = SearchStats::default();
        for root in [0u32, 17, 35] {
            let fwd = topo
                .phast_distances(
                    &metric,
                    NodeId(root),
                    Direction::Forward,
                    &SearchBudget::unlimited(),
                    &mut stats,
                )
                .unwrap();
            let tree = ws
                .shortest_path_tree(&net, net.weights(), NodeId(root), Direction::Forward)
                .unwrap();
            assert_eq!(fwd, tree.dist, "forward from {root}");
            let bwd = topo
                .phast_distances(
                    &metric,
                    NodeId(root),
                    Direction::Backward,
                    &SearchBudget::unlimited(),
                    &mut stats,
                )
                .unwrap();
            let tree = ws
                .shortest_path_tree(&net, net.weights(), NodeId(root), Direction::Backward)
                .unwrap();
            assert_eq!(bwd, tree.dist, "backward from {root}");
        }
        assert!(stats.settled > 0);
        assert!(stats.relaxed > 0);
    }

    #[test]
    fn ranks_are_a_permutation_and_arcs_cover_edges() {
        let net = grid(5);
        let topo = ChTopology::build(&net);
        let mut ranks: Vec<u32> = (0..25).map(|v| topo.rank(NodeId(v))).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..25).collect::<Vec<_>>());
        assert!(topo.num_arcs() >= 40, "arcs must cover the 40 adjacencies");
        assert!(topo.matches(&net));
    }

    #[test]
    fn cancelled_budget_interrupts_phast() {
        let net = grid(8);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        let budget = SearchBudget::new();
        budget.cancel();
        let mut stats = SearchStats::default();
        assert!(matches!(
            topo.phast_distances(&metric, NodeId(0), Direction::Forward, &budget, &mut stats),
            Err(CoreError::Interrupted)
        ));
    }

    #[test]
    fn metric_epoch_stamp_round_trips() {
        let net = grid(3);
        let topo = ChTopology::build(&net);
        let metric = topo.customize(&net, net.weights()).unwrap();
        assert_eq!(metric.epoch(), 0);
        assert_eq!(metric.with_epoch(9).epoch(), 9);
    }

    /// FNV-1a over the little-endian bytes of each word.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    fn words(v: &[u32]) -> impl Iterator<Item = u64> + '_ {
        v.iter().map(|&x| x as u64)
    }

    /// Every third edge slowed 3x, edges 0 and 7 closed.
    fn closure_overlay(net: &RoadNetwork) -> Vec<Weight> {
        let mut overlay = net.weights().to_vec();
        for (i, w) in overlay.iter_mut().enumerate() {
            if i % 3 == 0 {
                *w = w.saturating_mul(3).min(u32::MAX - 1);
            }
        }
        overlay[0] = CLOSED;
        overlay[7] = CLOSED;
        overlay
    }

    #[test]
    fn topology_and_metrics_are_pinned() {
        // Melbourne Small at the study's master seed; the digests were
        // recorded from the hash-set builder this one replaced.
        let city = arp_citygen::generate(
            arp_citygen::City::Melbourne,
            arp_citygen::Scale::Small,
            20220509,
        );
        let net = &city.network;
        let topo = ChTopology::build(net);
        assert_eq!(topo.num_arcs(), 21344);
        assert_eq!(topo.num_triangles(), 199465);
        assert_eq!(fnv(words(&topo.rank)), 0x743f_7a4c_b5af_79cc, "rank");
        assert_eq!(fnv(words(&topo.arc_lo)), 0x14a9_0d3d_02c6_0b77, "arc_lo");
        assert_eq!(fnv(words(&topo.arc_hi)), 0xb358_a03f_bebd_92e9, "arc_hi");
        assert_eq!(
            fnv(words(&topo.up_first)),
            0xaf94_8f91_df68_de7d,
            "up_first"
        );
        assert_eq!(fnv(words(&topo.up_arcs)), 0xe736_829b_8734_daf5, "up_arcs");
        assert_eq!(
            fnv(words(&topo.edge_arc)),
            0x6ebf_0cac_5678_fb9c,
            "edge_arc"
        );
        let is_up = topo.edge_is_up.iter().map(|&b| b as u64);
        assert_eq!(fnv(is_up), 0x20c1_9801_a035_2525, "edge_is_up");

        let metric = topo.customize(net, net.weights()).unwrap();
        assert_eq!(fnv(metric.up.iter().copied()), 0xee54_ca83_03b8_1c06, "up");
        assert_eq!(
            fnv(metric.down.iter().copied()),
            0x73c4_f4c2_a152_c7ed,
            "down"
        );
        assert_eq!(fnv(words(&metric.via_up)), 0x2278_c795_dee3_3761, "via_up");
        assert_eq!(
            fnv(words(&metric.via_down)),
            0x2bd0_f74c_8681_ac12,
            "via_down"
        );

        let metric = topo.customize(net, &closure_overlay(net)).unwrap();
        assert_eq!(
            fnv(metric.up.iter().copied()),
            0xa975_98d1_5a06_8bf2,
            "overlay up"
        );
        assert_eq!(
            fnv(metric.down.iter().copied()),
            0x6a26_69be_7366_f0ec,
            "overlay down"
        );
        assert_eq!(
            fnv(words(&metric.via_up)),
            0xc830_9e42_e816_38bb,
            "overlay via_up"
        );
        assert_eq!(
            fnv(words(&metric.via_down)),
            0x45e2_9f69_0633_13a0,
            "overlay via_down"
        );
    }

    #[test]
    fn unpacked_edge_lists_are_pinned() {
        let net = grid(6);
        let topo = ChTopology::build(&net);
        let overlay = closure_overlay(&net);
        let metric = topo.customize(&net, &overlay).unwrap();
        let edges = |s: u32, t: u32| -> Vec<u32> {
            let p = topo.shortest_path(&metric, &net, &overlay, NodeId(s), NodeId(t));
            p.unwrap().edges.iter().map(|e| e.0).collect()
        };
        assert_eq!(edges(0, 35), [1, 17, 22, 44, 65, 70, 91, 95, 100, 117]);
        assert_eq!(edges(35, 0), [119, 116, 113, 109, 89, 67, 46, 41, 20, 16]);
        assert_eq!(edges(7, 28), [22, 44, 65, 70, 91, 95]);
        // Every ordered pair, each list behind a separator.
        let mut all = Vec::new();
        for s in 0..36 {
            for t in (0..36).filter(|&t| t != s) {
                all.push(u64::MAX);
                all.extend(edges(s, t).into_iter().map(u64::from));
            }
        }
        assert_eq!(fnv(all), 0x9a1c_302f_2795_2b7b);
    }
}
