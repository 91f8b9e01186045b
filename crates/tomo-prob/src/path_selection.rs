//! Algorithm 1 of the paper: selection of the path sets whose equations make
//! the system solvable.
//!
//! Rather than enumerating all `2^|P*|` path sets, the algorithm
//!
//! 1. seeds the system with one path set per target correlation subset `E`,
//!    namely `Paths(E) \ Paths(Ē)` (the paths that observe `E` but avoid the
//!    rest of its correlation set);
//! 2. maintains a basis `N` of the null space of the system matrix restricted
//!    to the target unknowns;
//! 3. repeatedly looks for a path set whose row is not orthogonal to `N`
//!    (i.e. whose equation increases the rank), preferring target subsets
//!    whose null-space row has the largest Hamming weight
//!    (`SortByHammingWeight` in the paper), and updates `N` incrementally
//!    with Algorithm 2 each time a row is added;
//! 4. stops when the null space is empty (every target is identifiable) or no
//!    candidate path set adds rank.
//!
//! The candidate path sets for a subset `E` are the subsets of
//! `Paths(E) \ Paths(Ē)`, enumerated in increasing cardinality up to a
//! configurable budget — the exponential `2^{n2}` term in the paper's
//! complexity bound is capped the same way the paper caps the subset size:
//! by spending only as much of it as resources allow.
//!
//! ## Representation
//!
//! The inner loop evaluates thousands of candidate path sets, and each
//! evaluation is pure set algebra: union the links of the candidate's paths,
//! intersect with each correlation set, check the intersections against the
//! target list. [`select_path_sets`] therefore works on `u64`-word bitmaps —
//! per-path link bitmaps over the densely indexed potentially congested
//! links, per-correlation-set masks, and a hash lookup from intersection
//! bitmaps to target columns — so one candidate costs a few word operations
//! instead of `BTreeSet` unions and per-subset allocations. The null-space
//! basis arithmetic of Algorithm 2 is unchanged (real-valued rank is *not*
//! GF(2) rank), but the per-target Hamming weights that drive
//! `SortByHammingWeight` are tracked incrementally across basis updates
//! instead of being recounted from scratch at every admission.
//!
//! ## Resumed candidate scans
//!
//! A candidate is rejected for one of three reasons, and each is permanent:
//!
//! - it was already selected or tried (`seen`), and that set only grows;
//! - it induces a subset outside the target list (unclean), which depends on
//!   the candidate alone;
//! - its row misses the null space (`r·N = 0`). Every fold adds a row, so
//!   the null space only shrinks: a new basis is a combination of the old
//!   columns, and a row orthogonal to all of them stays orthogonal to it.
//!   (The test is `|r·N_c| ≤ tol` per column, so in floating point this
//!   holds up to rounding, far below `tol` for 0/1 rows; the oracle
//!   comparisons below pin it on instances with many rounds.)
//!
//! So [`select_path_sets`] keeps one enumeration cursor per target, and each
//! augmentation round resumes every scan where the previous round left it
//! instead of restarting it; a target whose cursor is exhausted is skipped in
//! O(1). The visited sequence, the `SortByHammingWeight` order and the first
//! accepted candidate of each round are the ones a restarted scan would
//! produce, so the selection is unchanged, but each candidate is evaluated
//! at most once per fit: at most `Σ_t min(budget, 2^|P_t| − 1)` evaluations
//! (`P_t` the observing paths of target `t`), instead of that sum times the
//! number of augmentation rounds.
//!
//! [`select_path_sets_reference`] retains the original element-wise
//! implementation as the behavioral oracle: both must select the identical
//! path sets in the identical order (see the equivalence tests and the
//! `tomo-prob` property suite).

use std::collections::{BTreeSet, HashMap, HashSet};

use serde::{Deserialize, Serialize};
use tomo_graph::{CorrelationSubset, LinkId, Network, PathId};
use tomo_linalg::{nullspace_update, Matrix, NullSpaceUpdate, DEFAULT_TOL};

use crate::subsets::{always_good_links, pruned_complement};
use crate::system::{induced_subsets, SubsetIndex};
use tomo_sim::PathObservations;

/// Configuration of the path-set selection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PathSelectionConfig {
    /// Maximum number of candidate path sets enumerated per correlation
    /// subset in the augmentation loop (the `2^{n2}` budget).
    pub max_candidates_per_subset: usize,
    /// Numerical tolerance for the `‖r × N‖ > 0` test.
    pub tol: f64,
}

impl Default for PathSelectionConfig {
    fn default() -> Self {
        Self {
            max_candidates_per_subset: 2048,
            tol: 1e-7,
        }
    }
}

/// The outcome of the selection.
#[derive(Clone, Debug)]
pub struct PathSelectionOutcome {
    /// The selected path sets, in the order their equations should be formed.
    pub path_sets: Vec<Vec<PathId>>,
    /// Number of path sets contributed by the seeding phase (lines 1–5).
    pub initial_count: usize,
    /// Number of path sets added by the augmentation loop (lines 8–22).
    pub augmented_count: usize,
    /// Dimension of the remaining null space over the target unknowns when
    /// the algorithm stopped (0 when every target is identifiable).
    pub final_nullity: usize,
    /// Per-target identifiability: `true` when the target's row in the final
    /// null-space basis is (numerically) zero.
    pub identifiable: Vec<bool>,
}

impl PathSelectionOutcome {
    /// Number of identifiable targets.
    pub fn identifiable_count(&self) -> usize {
        self.identifiable.iter().filter(|&&b| b).count()
    }
}

// ---------------------------------------------------------------------------
// Bitmap machinery
// ---------------------------------------------------------------------------

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

#[inline]
fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] |= 1u64 << (bit % 64);
}

#[inline]
fn or_into(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a |= b;
    }
}

/// `out = a & b`; returns `true` when the intersection is non-empty.
#[inline]
fn and_into(out: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    let mut any = 0u64;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
        any |= *o;
    }
    any != 0
}

/// Precomputed bitmap view of the selection problem: dense link indexing,
/// per-path link bitmaps, per-correlation-set masks and the intersection →
/// target-column lookup.
struct SelectionContext {
    link_words: usize,
    path_words: usize,
    /// Per path: bitmap of its potentially congested links.
    path_links: Vec<Vec<u64>>,
    /// Per path: sorted, deduplicated correlation-set ids of those links.
    path_set_ids: Vec<Vec<usize>>,
    /// Per correlation set id: bitmap of its potentially congested links.
    set_masks: Vec<Vec<u64>>,
    /// `set_id → (link bitmap → target column)`.
    target_cols: HashMap<usize, HashMap<Vec<u64>, usize>>,
}

impl SelectionContext {
    fn new(network: &Network, index: &SubsetIndex, pc: &BTreeSet<LinkId>) -> Self {
        let n_targets = index.num_targets();
        // Dense indexing: potentially congested links first (ascending, the
        // only ones induced subsets can contain), then any target links
        // outside that set (so target bitmaps are representable; they can
        // never match an induced bitmap, mirroring the reference rejection).
        let mut link_slot = vec![usize::MAX; network.num_links()];
        let mut n_indexed = 0usize;
        for &l in pc {
            if link_slot[l.index()] == usize::MAX {
                link_slot[l.index()] = n_indexed;
                n_indexed += 1;
            }
        }
        for t in &index.subsets()[..n_targets] {
            for &l in &t.links {
                if l.index() < link_slot.len() && link_slot[l.index()] == usize::MAX {
                    link_slot[l.index()] = n_indexed;
                    n_indexed += 1;
                }
            }
        }
        let link_words = words_for(n_indexed.max(1));

        let num_sets = network.correlation_sets().len();
        let mut set_masks = vec![vec![0u64; link_words]; num_sets];
        for &l in pc {
            set_bit(
                &mut set_masks[network.correlation_set_of(l)],
                link_slot[l.index()],
            );
        }

        let mut path_links = Vec::with_capacity(network.num_paths());
        let mut path_set_ids = Vec::with_capacity(network.num_paths());
        for p in network.path_ids() {
            let mut bm = vec![0u64; link_words];
            let mut ids: Vec<usize> = Vec::new();
            for &l in &network.path(p).links {
                if pc.contains(&l) {
                    set_bit(&mut bm, link_slot[l.index()]);
                    ids.push(network.correlation_set_of(l));
                }
            }
            ids.sort_unstable();
            ids.dedup();
            path_links.push(bm);
            path_set_ids.push(ids);
        }

        let mut target_cols: HashMap<usize, HashMap<Vec<u64>, usize>> = HashMap::new();
        for (col, t) in index.subsets()[..n_targets].iter().enumerate() {
            let mut bm = vec![0u64; link_words];
            for &l in &t.links {
                if l.index() < link_slot.len() && link_slot[l.index()] != usize::MAX {
                    set_bit(&mut bm, link_slot[l.index()]);
                }
            }
            target_cols
                .entry(t.set_id)
                .or_default()
                .entry(bm)
                .or_insert(col);
        }

        Self {
            link_words,
            path_words: words_for(network.num_paths().max(1)),
            path_links,
            path_set_ids,
            set_masks,
            target_cols,
        }
    }

    /// Bitmap of a path set (over path indices), into `out`.
    fn path_bitmap_into(&self, paths: &[PathId], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.path_words, 0);
        for p in paths {
            set_bit(out, p.index());
        }
    }

    /// Computes the target columns of `Row(P, Ê)` for a path set. Returns
    /// `false` when some induced subset is not a target (the path set must
    /// not become an equation). On success `cols` holds the columns sorted
    /// ascending.
    fn target_row_cols(
        &self,
        paths: &[PathId],
        union: &mut Vec<u64>,
        inter: &mut Vec<u64>,
        sids: &mut Vec<usize>,
        cols: &mut Vec<usize>,
    ) -> bool {
        union.clear();
        union.resize(self.link_words, 0);
        inter.resize(self.link_words, 0);
        sids.clear();
        cols.clear();
        for p in paths {
            or_into(union, &self.path_links[p.index()]);
            sids.extend_from_slice(&self.path_set_ids[p.index()]);
        }
        sids.sort_unstable();
        sids.dedup();
        for &s in sids.iter() {
            if !and_into(inter, union, &self.set_masks[s]) {
                continue;
            }
            let Some(col) = self
                .target_cols
                .get(&s)
                .and_then(|m| m.get(inter.as_slice()))
            else {
                return false;
            };
            cols.push(*col);
        }
        cols.sort_unstable();
        true
    }
}

/// Incrementally maintained null-space basis over the target unknowns, with
/// per-target Hamming weights (`SortByHammingWeight`) updated in place as
/// rows are folded in, instead of recounted from the full basis at every
/// admission.
///
/// The arithmetic replicates [`nullspace_update`] operation-for-operation
/// (same pivot rule `j = argmax |r·N_j|` with last-max tie-breaking, same
/// rank-one column update, same summation order over the row's nonzeros), so
/// the maintained basis is bit-identical to the reference implementation's —
/// only columns whose `r·N_c` is exactly zero are skipped, which cannot
/// change any value the algorithm compares.
struct NullTracker {
    targets: usize,
    /// Basis columns (each of length `targets`), in reference order.
    cols: Vec<Vec<f64>>,
    /// Per target: number of basis columns with `|N[t][c]| > weight_tol`.
    weights: Vec<usize>,
    weight_tol: f64,
}

impl NullTracker {
    /// The null space of an empty system: the identity basis.
    fn identity(targets: usize, weight_tol: f64) -> Self {
        let mut cols = Vec::with_capacity(targets);
        for j in 0..targets {
            let mut c = vec![0.0; targets];
            c[j] = 1.0;
            cols.push(c);
        }
        Self {
            targets,
            cols,
            weights: vec![1; targets],
            weight_tol,
        }
    }

    fn nullity(&self) -> usize {
        self.cols.len()
    }

    /// `‖r × N‖ > tol` for a 0/1 row given by its nonzero columns (sorted).
    fn row_hits(&self, row_cols: &[usize], tol: f64) -> bool {
        self.cols.iter().any(|c| {
            let s: f64 = row_cols.iter().map(|&i| c[i]).sum();
            s.abs() > tol
        })
    }

    /// Algorithm 2: folds a 0/1 row into the basis. Returns `true` when the
    /// row was independent (the basis shrank by one column).
    fn fold(&mut self, row_cols: &[usize]) -> bool {
        let p = self.cols.len();
        if p == 0 {
            return false;
        }
        let dots: Vec<f64> = self
            .cols
            .iter()
            .map(|c| row_cols.iter().map(|&i| c[i]).sum())
            .collect();
        // Pivot: largest |r·N_j|, last maximum winning ties (the fold of
        // `Iterator::max_by`).
        let mut j = 0usize;
        let mut best = dots[0].abs();
        for (c, d) in dots.iter().enumerate().skip(1) {
            if d.abs().total_cmp(&best) != std::cmp::Ordering::Less {
                j = c;
                best = d.abs();
            }
        }
        if best <= DEFAULT_TOL {
            return false;
        }
        let dj = dots[j];
        let nj = self.cols[j].clone();
        for (weight, &entry) in self.weights.iter_mut().zip(&nj[..self.targets]) {
            if entry.abs() > self.weight_tol {
                *weight -= 1;
            }
        }
        for (c, col) in self.cols.iter_mut().enumerate() {
            if c == j {
                continue;
            }
            let factor = dots[c] / dj;
            if factor == 0.0 {
                // The rank-one update is a no-op on this column (up to the
                // sign of zeros, which nothing downstream observes).
                continue;
            }
            for i in 0..self.targets {
                let old = col[i];
                let new = old - nj[i] * factor;
                let was = old.abs() > self.weight_tol;
                let is = new.abs() > self.weight_tol;
                match (was, is) {
                    (false, true) => self.weights[i] += 1,
                    (true, false) => self.weights[i] -= 1,
                    _ => {}
                }
                col[i] = new;
            }
        }
        self.cols.remove(j);
        true
    }
}

/// Runs Algorithm 1 over the target correlation subsets.
///
/// `targets` defines the unknown columns; `potentially_congested` is the set
/// of links that may ever be congested (always-good links are excluded from
/// the rows, see [`crate::system::induced_subsets`]).
///
/// This is the bitmap fast path; it selects the identical path sets, in the
/// identical order, as [`select_path_sets_reference`].
pub fn select_path_sets(
    network: &Network,
    observations: &PathObservations,
    targets: &[CorrelationSubset],
    potentially_congested: &BTreeSet<LinkId>,
    config: &PathSelectionConfig,
) -> PathSelectionOutcome {
    let index = SubsetIndex::new(targets.to_vec());
    let n_targets = index.num_targets();
    if n_targets == 0 {
        return PathSelectionOutcome {
            path_sets: Vec::new(),
            initial_count: 0,
            augmented_count: 0,
            final_nullity: 0,
            identifiable: Vec::new(),
        };
    }
    let ctx = SelectionContext::new(network, &index, potentially_congested);

    // Scratch buffers reused across every candidate evaluation.
    let mut union = Vec::new();
    let mut inter = Vec::new();
    let mut sids = Vec::new();
    let mut cols = Vec::new();
    let mut path_bm = Vec::new();

    // --- Seeding: one path set per target subset (lines 1–5) ---------------
    // Each entry carries the path set together with the (already validated)
    // target columns of its row.
    let mut path_sets: Vec<(Vec<PathId>, Vec<usize>)> = Vec::new();
    let mut seen_sets: HashSet<Vec<u64>> = HashSet::new();
    let mut observing_paths: Vec<Vec<PathId>> = Vec::with_capacity(n_targets);
    // `pruned_complement` recomputes the always-good links per call; they
    // depend only on the observations, so hoist them out of the loop.
    let good = always_good_links(network, observations);
    for subset in targets {
        let paths_e = network.paths_covering_subset(subset);
        let set = &network.correlation_sets()[subset.set_id];
        let complement = CorrelationSubset::new(
            subset.set_id,
            set.links
                .iter()
                .copied()
                .filter(|l| !subset.links.contains(l) && !good.contains(l)),
        );
        let paths_comp = network.paths_covering_subset(&complement);
        let p: Vec<PathId> = paths_e.difference(&paths_comp).copied().collect();
        observing_paths.push(p.clone());
        // Only path sets whose induced subsets all belong to Ê form usable
        // equations (the paper's `Row(P, Ê)`): an equation involving a
        // subset outside the target list would carry an extra unknown the
        // rank analysis cannot see, silently entangling the targets with
        // it. Unclean seeds are skipped; the augmentation loop then finds
        // smaller, clean path sets for their targets instead. Marking
        // rejected seeds as seen caches the rejection.
        if p.is_empty() {
            continue;
        }
        ctx.path_bitmap_into(&p, &mut path_bm);
        if !seen_sets.insert(path_bm.clone()) {
            continue;
        }
        if ctx.target_row_cols(&p, &mut union, &mut inter, &mut sids, &mut cols) {
            path_sets.push((p, cols.clone()));
        }
    }
    let initial_count = path_sets.len();

    // --- Initial null space (lines 6–7), built incrementally ---------------
    let mut tracker = NullTracker::identity(n_targets, config.tol);
    for (_, row_cols) in &path_sets {
        tracker.fold(row_cols);
        if tracker.nullity() == 0 {
            break;
        }
    }

    // --- Augmentation loop (lines 8–22) -------------------------------------
    // Every rejection is permanent (see the module docs), so each target's
    // candidate scan resumes where the previous round left it.
    let mut cursors: Vec<SubsetCursor> = observing_paths
        .iter()
        .map(|base| SubsetCursor::new(base.len(), config.max_candidates_per_subset))
        .collect();
    let mut candidate = Vec::new();
    let mut augmented_count = 0usize;
    while tracker.nullity() > 0 {
        // SortByHammingWeight over the incrementally maintained weights.
        // Rows of weight 0 cannot move the null space in their own direction
        // and rarely help others; skip them for speed (they sort last
        // anyway), together with the targets whose scan is exhausted.
        let mut order: Vec<(usize, usize)> = tracker
            .weights
            .iter()
            .enumerate()
            .filter(|&(i, &w)| w > 0 && !cursors[i].is_exhausted())
            .map(|(i, &w)| (w, i))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut found: Option<Vec<usize>> = None;
        'targets: for (_, target_idx) in order {
            let base = &observing_paths[target_idx];
            let cursor = &mut cursors[target_idx];
            while cursor.next_into(base, &mut candidate) {
                ctx.path_bitmap_into(&candidate, &mut path_bm);
                if seen_sets.contains(path_bm.as_slice()) {
                    continue;
                }
                if !ctx.target_row_cols(&candidate, &mut union, &mut inter, &mut sids, &mut cols) {
                    continue;
                }
                if tracker.row_hits(&cols, config.tol) {
                    found = Some(cols.clone());
                    break 'targets;
                }
            }
        }
        let Some(new_cols) = found else {
            break;
        };
        if !tracker.fold(&new_cols) {
            // Should not happen (the candidate passed the ‖r×N‖ test), but
            // guard against numerical disagreement to avoid looping.
            break;
        }
        // `path_bm` still holds the accepted candidate's bitmap.
        seen_sets.insert(path_bm.clone());
        path_sets.push((candidate.clone(), new_cols));
        augmented_count += 1;
    }

    // --- Identifiability of each target -------------------------------------
    let identifiable = tracker.weights.iter().map(|&w| w == 0).collect();

    PathSelectionOutcome {
        path_sets: path_sets.into_iter().map(|(ps, _)| ps).collect(),
        initial_count,
        augmented_count,
        final_nullity: tracker.nullity(),
        identifiable,
    }
}

// ---------------------------------------------------------------------------
// Reference implementation (element-wise, dense rows) — the behavioral oracle
// ---------------------------------------------------------------------------

/// The original element-wise implementation of Algorithm 1, kept as the
/// reference oracle for [`select_path_sets`]: identical inputs must yield the
/// identical [`PathSelectionOutcome`]. It is exercised by the equivalence
/// tests and benchmarked next to the bitmap path; production callers use
/// [`select_path_sets`].
pub fn select_path_sets_reference(
    network: &Network,
    observations: &PathObservations,
    targets: &[CorrelationSubset],
    potentially_congested: &BTreeSet<LinkId>,
    config: &PathSelectionConfig,
) -> PathSelectionOutcome {
    let index = SubsetIndex::new(targets.to_vec());
    let n_targets = index.num_targets();
    if n_targets == 0 {
        return PathSelectionOutcome {
            path_sets: Vec::new(),
            initial_count: 0,
            augmented_count: 0,
            final_nullity: 0,
            identifiable: Vec::new(),
        };
    }

    // --- Seeding: one path set per target subset (lines 1–5) ---------------
    let mut path_sets: Vec<(Vec<PathId>, Vec<f64>)> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<PathId>> = BTreeSet::new();
    let mut observing_paths: Vec<Vec<PathId>> = Vec::with_capacity(n_targets);
    for subset in targets {
        let paths_e = network.paths_covering_subset(subset);
        let complement = pruned_complement(network, observations, subset);
        let paths_comp = network.paths_covering_subset(&complement);
        let p: Vec<PathId> = paths_e.difference(&paths_comp).copied().collect();
        observing_paths.push(p.clone());
        if p.is_empty() || !seen_sets.insert(p.clone()) {
            continue;
        }
        if let Some(row) = target_row(network, &p, potentially_congested, &index) {
            path_sets.push((p, row));
        }
    }
    let initial_count = path_sets.len();

    // --- Initial null space (lines 6–7), built incrementally ---------------
    let mut nullspace = Matrix::identity(n_targets);
    for (_, row) in &path_sets {
        nullspace = nullspace_update(&nullspace, row).into_basis();
        if nullspace.cols() == 0 {
            break;
        }
    }

    // --- Augmentation loop (lines 8–22) -------------------------------------
    let mut augmented_count = 0usize;
    while nullspace.cols() > 0 {
        let Some((new_set, new_row)) = find_augmenting_path_set(
            network,
            potentially_congested,
            &index,
            &observing_paths,
            &nullspace,
            &seen_sets,
            config,
        ) else {
            break;
        };
        match nullspace_update(&nullspace, &new_row) {
            NullSpaceUpdate::Reduced(n) => {
                nullspace = n;
            }
            NullSpaceUpdate::Unchanged(n) => {
                nullspace = n;
                break;
            }
        }
        seen_sets.insert(new_set.clone());
        path_sets.push((new_set, new_row));
        augmented_count += 1;
    }

    // --- Identifiability of each target -------------------------------------
    let identifiable = (0..n_targets)
        .map(|i| (0..nullspace.cols()).all(|j| nullspace[(i, j)].abs() <= config.tol))
        .collect();

    PathSelectionOutcome {
        path_sets: path_sets.into_iter().map(|(ps, _)| ps).collect(),
        initial_count,
        augmented_count,
        final_nullity: nullspace.cols(),
        identifiable,
    }
}

/// The row of `path_set` over the target columns, or `None` when some
/// induced subset falls outside Ê. Path sets failing this test must not
/// become equations: their rows would involve unknowns outside the target
/// list. Induced subsets are computed once and reused for both the
/// cleanliness check and the row.
fn target_row(
    network: &Network,
    path_set: &[PathId],
    potentially_congested: &BTreeSet<LinkId>,
    index: &SubsetIndex,
) -> Option<Vec<f64>> {
    let mut row = vec![0.0; index.num_targets()];
    for subset in induced_subsets(network, path_set, potentially_congested) {
        match index.index_of(&subset) {
            Some(col) if col < index.num_targets() => row[col] = 1.0,
            _ => return None,
        }
    }
    Some(row)
}

/// Searches for a path set whose row intersects the current null space
/// (lines 10–19 of Algorithm 1). Returns the path set and its dense row.
fn find_augmenting_path_set(
    network: &Network,
    potentially_congested: &BTreeSet<LinkId>,
    index: &SubsetIndex,
    observing_paths: &[Vec<PathId>],
    nullspace: &Matrix,
    seen_sets: &BTreeSet<Vec<PathId>>,
    config: &PathSelectionConfig,
) -> Option<(Vec<PathId>, Vec<f64>)> {
    // SortByHammingWeight: order the target subsets by the number of
    // non-negligible entries in their null-space row, descending.
    let mut weights: Vec<(usize, usize)> = (0..index.num_targets())
        .map(|i| {
            let w = (0..nullspace.cols())
                .filter(|&j| nullspace[(i, j)].abs() > config.tol)
                .count();
            (w, i)
        })
        .collect();
    weights.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    for (weight, target_idx) in weights {
        if weight == 0 {
            continue;
        }
        let base = &observing_paths[target_idx];
        if base.is_empty() {
            continue;
        }
        let mut found: Option<(Vec<PathId>, Vec<f64>)> = None;
        for_each_subset_by_size(base, config.max_candidates_per_subset, |candidate| {
            if seen_sets.contains(candidate) {
                return false;
            }
            let Some(row) = target_row(network, candidate, potentially_congested, index) else {
                return false;
            };
            if row_hits_nullspace(&row, nullspace, config.tol) {
                found = Some((candidate.to_vec(), row));
                return true;
            }
            false
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// `‖r × N‖ > tol`, computed sparsely over the non-zero entries of `r`.
fn row_hits_nullspace(row: &[f64], nullspace: &Matrix, tol: f64) -> bool {
    let nz: Vec<usize> = row
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0.0)
        .map(|(i, _)| i)
        .collect();
    if nz.is_empty() {
        return false;
    }
    for j in 0..nullspace.cols() {
        let mut s = 0.0;
        for &i in &nz {
            s += row[i] * nullspace[(i, j)];
        }
        if s.abs() > tol {
            return true;
        }
    }
    false
}

/// Resumable enumeration of the non-empty subsets of a base set of `n`
/// items, in increasing cardinality and capped at a budget. The full set
/// comes first: it is the single most informative equation (it ties all the
/// subsets of the target together), and trying it first mirrors the seeding
/// phase. The proper subsets follow, size by size, each size in
/// lexicographic order of indices.
///
/// The cursor only holds its position, not the base, so one cursor per
/// target can be parked between augmentation rounds and resumed where it
/// stopped.
#[derive(Clone, Debug)]
struct SubsetCursor {
    /// Items the budget still allows; 0 once the cursor is exhausted.
    remaining: usize,
    /// Indices into the base of the next proper subset to yield; empty
    /// while the full set is still due.
    indices: Vec<usize>,
}

impl SubsetCursor {
    fn new(n: usize, budget: usize) -> Self {
        Self {
            remaining: if n == 0 { 0 } else { budget },
            indices: Vec::new(),
        }
    }

    fn is_exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Writes the next subset of `base` into `out`; returns `false` (and
    /// leaves `out` untouched) once the cursor is exhausted. `base` must be
    /// the same `n`-item slice on every call.
    fn next_into(&mut self, base: &[PathId], out: &mut Vec<PathId>) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        out.clear();
        if self.indices.is_empty() {
            out.extend_from_slice(base);
        } else {
            out.extend(self.indices.iter().map(|&i| base[i]));
        }
        self.advance(base.len());
        true
    }

    /// Moves to the subset after the one just yielded: the next combination
    /// of the same size, else the first one of the next size, else
    /// exhaustion (the full set is not repeated at size `n`).
    fn advance(&mut self, n: usize) {
        let size = self.indices.len();
        let mut i = size;
        while i > 0 {
            i -= 1;
            if self.indices[i] < i + n - size {
                self.indices[i] += 1;
                for j in (i + 1)..size {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                return;
            }
        }
        if size + 1 >= n {
            self.remaining = 0;
            return;
        }
        self.indices.clear();
        self.indices.extend(0..=size);
    }
}

/// Enumerates the non-empty subsets of `base` in [`SubsetCursor`] order,
/// invoking `visit` on each until it returns `true` (stop) or `budget`
/// subsets have been visited.
fn for_each_subset_by_size(
    base: &[PathId],
    budget: usize,
    mut visit: impl FnMut(&[PathId]) -> bool,
) {
    let mut cursor = SubsetCursor::new(base.len(), budget);
    let mut candidate = Vec::with_capacity(base.len());
    while cursor.next_into(base, &mut candidate) {
        if visit(&candidate) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subsets::potentially_congested_subsets;
    use crate::system::row_over_targets;
    use tomo_graph::toy::{fig1_case1, fig1_case2};
    use tomo_graph::PathId;
    use tomo_linalg::gauss::rank;
    use tomo_sim::PathObservations;

    /// Observations in which every path is congested at least once, so every
    /// link is potentially congested.
    fn busy_observations(num_paths: usize) -> PathObservations {
        let mut o = PathObservations::new(num_paths, 4);
        for p in 0..num_paths {
            o.set_congested(PathId(p), 0, true);
        }
        o
    }

    fn run(network: &tomo_graph::Network) -> (PathSelectionOutcome, Vec<CorrelationSubset>) {
        let obs = busy_observations(network.num_paths());
        let targets = potentially_congested_subsets(network, &obs, 4);
        let pc: BTreeSet<LinkId> = crate::subsets::potentially_congested_links(network, &obs)
            .into_iter()
            .collect();
        let outcome = select_path_sets(
            network,
            &obs,
            &targets,
            &pc,
            &PathSelectionConfig::default(),
        );
        (outcome, targets)
    }

    /// Asserts that the bitmap fast path and the reference oracle agree on
    /// every field of the outcome.
    fn assert_equivalent(network: &tomo_graph::Network, obs: &PathObservations) {
        let targets = potentially_congested_subsets(network, obs, 4);
        let pc: BTreeSet<LinkId> = crate::subsets::potentially_congested_links(network, obs)
            .into_iter()
            .collect();
        let cfg = PathSelectionConfig::default();
        let fast = select_path_sets(network, obs, &targets, &pc, &cfg);
        let slow = select_path_sets_reference(network, obs, &targets, &pc, &cfg);
        assert_eq!(fast.path_sets, slow.path_sets);
        assert_eq!(fast.initial_count, slow.initial_count);
        assert_eq!(fast.augmented_count, slow.augmented_count);
        assert_eq!(fast.final_nullity, slow.final_nullity);
        assert_eq!(fast.identifiable, slow.identifiable);
    }

    #[test]
    fn bitmap_matches_reference_on_toy_networks() {
        for net in [fig1_case1(), fig1_case2()] {
            let obs = busy_observations(net.num_paths());
            assert_equivalent(&net, &obs);
        }
    }

    #[test]
    fn bitmap_matches_reference_under_partial_congestion() {
        // Observations in which some paths are always good, so the
        // potentially congested link set (and thus the pruned complements,
        // the seeds and the dense indexing) is a strict subset.
        for net in [fig1_case1(), fig1_case2()] {
            for good_path in 0..net.num_paths() {
                let mut o = PathObservations::new(net.num_paths(), 4);
                for p in 0..net.num_paths() {
                    if p != good_path {
                        o.set_congested(PathId(p), 0, true);
                    }
                }
                assert_equivalent(&net, &o);
            }
        }
    }

    #[test]
    fn selected_path_sets_never_induce_unknowns_outside_the_targets() {
        // Regression test: when the target list is capped (here: singletons
        // only), Algorithm 1 must not select path sets whose equations
        // involve subsets outside Ê — such equations would entangle the
        // targets with unknowns the rank analysis cannot see, silently
        // corrupting "identifiable" estimates. On Fig. 1 Case 1, the path
        // set {p1, p2} induces the pair {e2, e3} and must be rejected.
        let net = fig1_case1();
        let obs = busy_observations(net.num_paths());
        let targets = potentially_congested_subsets(&net, &obs, 1);
        assert!(targets.iter().all(|t| t.len() == 1));
        let pc: BTreeSet<LinkId> = crate::subsets::potentially_congested_links(&net, &obs)
            .into_iter()
            .collect();
        let outcome = select_path_sets(&net, &obs, &targets, &pc, &PathSelectionConfig::default());
        let index = SubsetIndex::new(targets);
        for ps in &outcome.path_sets {
            for subset in crate::system::induced_subsets(&net, ps, &pc) {
                let col = index.index_of(&subset);
                assert!(
                    col.is_some_and(|c| c < index.num_targets()),
                    "path set {ps:?} induces non-target subset {subset}"
                );
            }
        }
        // Rejecting unclean seeds must not cost identifiability when clean
        // alternatives exist: Case 1's four singletons are all pinned by
        // pair-free path sets (e.g. {p2, p3} induces only singletons), which
        // the augmentation loop has to find.
        assert_eq!(outcome.final_nullity, 0);
        assert_eq!(outcome.identifiable_count(), index.num_targets());
    }

    #[test]
    fn case1_selects_a_full_rank_system() {
        // Fig. 1 Case 1: Identifiability++ holds, so Algorithm 1 must end
        // with an empty null space and all 5 targets identifiable.
        let net = fig1_case1();
        let (outcome, targets) = run(&net);
        assert_eq!(targets.len(), 5);
        assert_eq!(outcome.final_nullity, 0);
        assert_eq!(outcome.identifiable_count(), 5);
        // The system matrix over the targets must have rank 5.
        let obs = busy_observations(3);
        let pc: BTreeSet<LinkId> = crate::subsets::potentially_congested_links(&net, &obs)
            .into_iter()
            .collect();
        let index = SubsetIndex::new(targets);
        let rows: Vec<Vec<f64>> = outcome
            .path_sets
            .iter()
            .map(|ps| row_over_targets(&net, ps, &pc, &index))
            .collect();
        let m = Matrix::from_rows(&rows);
        assert_eq!(rank(&m), 5);
    }

    #[test]
    fn case1_seed_path_sets_match_the_paper_table() {
        // The seeding table of §5.3: for Ê = <{e1},{e2},{e3},{e4},{e2,e3}>,
        // the seed path sets are {p1,p2}, {p1}, {p2,p3}, {p3}, {p1,p2,p3}.
        let net = fig1_case1();
        let (outcome, targets) = run(&net);
        let expected: Vec<Vec<PathId>> = vec![
            vec![PathId(0), PathId(1)],
            vec![PathId(0)],
            vec![PathId(1), PathId(2)],
            vec![PathId(2)],
            vec![PathId(0), PathId(1), PathId(2)],
        ];
        // The targets are ordered singletons-then-pairs per correlation set;
        // regardless of the exact ordering, every expected seed must appear
        // among the selected path sets.
        for e in &expected {
            assert!(
                outcome.path_sets.contains(e),
                "missing seed {e:?}; got {:?} (targets {targets:?})",
                outcome.path_sets
            );
        }
        assert_eq!(outcome.initial_count, 5);
        // No augmentation is needed: the seeds already have full rank.
        assert_eq!(outcome.augmented_count, 0);
    }

    #[test]
    fn case2_reports_unidentifiable_subsets() {
        // Fig. 1 Case 2: {e1,e4} and {e2,e3} are traversed by the same paths,
        // so Identifiability++ fails and Algorithm 1 must stop with a
        // non-empty null space; the singleton subsets remain identifiable or
        // not depending on the structure, but at least one target must be
        // flagged unidentifiable.
        let net = fig1_case2();
        let (outcome, targets) = run(&net);
        assert_eq!(targets.len(), 6);
        assert!(outcome.final_nullity > 0);
        assert!(outcome.identifiable_count() < targets.len());
    }

    #[test]
    fn subset_enumeration_visits_full_set_first_and_respects_budget() {
        let base = vec![PathId(0), PathId(1), PathId(2)];
        let mut visited = Vec::new();
        for_each_subset_by_size(&base, 100, |s| {
            visited.push(s.to_vec());
            false
        });
        assert_eq!(visited[0], base);
        // 1 full set + 3 singles + 3 pairs = 7 (the full set is not repeated
        // at size 3 because enumeration of proper subsets stops at n-1).
        assert_eq!(visited.len(), 7);

        let mut count = 0;
        for_each_subset_by_size(&base, 3, |_| {
            count += 1;
            false
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn subset_cursor_resumes_where_it_stopped() {
        let drain = |cursor: &mut SubsetCursor, base: &[PathId]| {
            let mut out = Vec::new();
            let mut items = Vec::new();
            while cursor.next_into(base, &mut out) {
                items.push(out.clone());
            }
            items
        };
        for n in 0..=7usize {
            let base: Vec<PathId> = (0..n).map(|i| PathId(10 + i)).collect();
            for budget in [0usize, 1, 2, 5, 2048] {
                let full = drain(&mut SubsetCursor::new(n, budget), &base);
                assert_eq!(
                    full.len(),
                    budget.min((1usize << n) - 1),
                    "n={n} budget={budget}"
                );
                if let Some(first) = full.first() {
                    assert_eq!(first, &base, "n={n} budget={budget}");
                }
                // Proper subsets follow in nondecreasing size, each once.
                let distinct: BTreeSet<&Vec<PathId>> = full.iter().collect();
                assert_eq!(distinct.len(), full.len());
                assert!(full.iter().skip(1).all(|s| s.len() < n));
                assert!(full.windows(2).skip(1).all(|w| w[0].len() <= w[1].len()));

                let mut visited = Vec::new();
                for_each_subset_by_size(&base, budget, |s| {
                    visited.push(s.to_vec());
                    false
                });
                assert_eq!(visited, full, "n={n} budget={budget}");

                for k in 0..=full.len() {
                    let mut cursor = SubsetCursor::new(n, budget);
                    let mut out = Vec::new();
                    let mut resumed = Vec::new();
                    for _ in 0..k {
                        assert!(cursor.next_into(&base, &mut out));
                        resumed.push(out.clone());
                    }
                    // Park the cursor while another one runs, then resume.
                    drain(&mut SubsetCursor::new(n, budget), &base);
                    assert_eq!(cursor.is_exhausted(), k == full.len());
                    resumed.extend(drain(&mut cursor, &base));
                    assert_eq!(resumed, full, "n={n} budget={budget} k={k}");
                    assert!(cursor.is_exhausted());
                }
            }
        }
    }

    #[test]
    fn null_tracker_weights_match_recounting() {
        // Fold a handful of rows and verify the incrementally maintained
        // Hamming weights always equal a from-scratch recount of the basis.
        let rows: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3], vec![0, 2, 4], vec![4]];
        let mut t = NullTracker::identity(5, 1e-7);
        for row in &rows {
            t.fold(row);
            for i in 0..5 {
                let recount = t.cols.iter().filter(|c| c[i].abs() > 1e-7).count();
                assert_eq!(t.weights[i], recount, "row {row:?}, target {i}");
            }
        }
        assert_eq!(t.nullity(), 1);
    }

    #[test]
    fn empty_targets_yield_empty_outcome() {
        let net = fig1_case1();
        let obs = busy_observations(3);
        let outcome = select_path_sets(
            &net,
            &obs,
            &[],
            &BTreeSet::new(),
            &PathSelectionConfig::default(),
        );
        assert!(outcome.path_sets.is_empty());
        assert_eq!(outcome.final_nullity, 0);
    }
}
