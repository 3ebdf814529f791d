//! Rule coverage by leaf routing.
//!
//! A rule is a root→leaf path, and each predicate's `nan_satisfies`
//! mirrors the NaN routing of the split it came from. So a row satisfies
//! a rule exactly when the rule's tree routes the row to the rule's leaf.
//! Routing each row once through every tree therefore yields the coverage
//! of *every* rule of the forest, in `rows × trees` leaf walks, where
//! checking each rule against each row would cost `rules × rows` scans.

use crate::forest::RandomForest;
use crate::rules::{extract_rules, Rule};
use exec::Threads;

/// Rows routed per parallel work item.
const BLOCK: usize = 1024;

/// Every rule of a forest (in [`extract_rules`] order) with the rows it
/// covers, stored as one bucket per rule.
#[derive(Debug, Clone)]
pub struct RuleCoverage {
    rules: Vec<Rule>,
    /// Bucket `r` is `rows[start[r]..start[r + 1]]`.
    start: Vec<usize>,
    rows: Vec<usize>,
}

impl RuleCoverage {
    /// Route the rows of a row-major `matrix` (`n_features` wide) through
    /// every tree of `forest`, in parallel. With `within`, only those row
    /// indices are routed; each bucket lists its rows in `within` order
    /// (ascending row order without `within`), the same order a scan with
    /// [`Rule::matches`] would produce.
    pub fn route(
        forest: &RandomForest,
        matrix: &[f64],
        n_features: usize,
        within: Option<&[usize]>,
        threads: Threads,
    ) -> Self {
        let rules = extract_rules(forest);
        let trees = forest.trees();
        // Arena offset of each tree, and the rule that ends at each leaf.
        let mut base = Vec::with_capacity(trees.len());
        let mut n_nodes = 0;
        for t in trees {
            base.push(n_nodes);
            n_nodes += t.nodes().len();
        }
        let mut rule_at = vec![0u32; n_nodes];
        for (r, rule) in rules.iter().enumerate() {
            rule_at[base[rule.tree] + rule.leaf] = r as u32;
        }

        let n_rows = within.map_or_else(
            || matrix.len().checked_div(n_features).unwrap_or(0),
            <[usize]>::len,
        );
        let row_at = |p: usize| within.map_or(p, |w| w[p]);
        // Row-outer: each row is read once and walked down every tree.
        let routed: Vec<Vec<u32>> = exec::indexed_par_map(threads, n_rows.div_ceil(BLOCK), |b| {
            let rows = b * BLOCK..((b + 1) * BLOCK).min(n_rows);
            let mut out = Vec::with_capacity(rows.len() * trees.len());
            for p in rows {
                let i = row_at(p);
                let x = &matrix[i * n_features..(i + 1) * n_features];
                for (t, tree) in trees.iter().enumerate() {
                    out.push(rule_at[base[t] + tree.leaf_of(x)]);
                }
            }
            out
        });

        // Counting sort into buckets; rows keep their routing order.
        let mut start = vec![0usize; rules.len() + 1];
        for &r in routed.iter().flatten() {
            start[r as usize + 1] += 1;
        }
        for r in 0..rules.len() {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut rows = vec![0usize; start[rules.len()]];
        for (j, &r) in routed.iter().flatten().enumerate() {
            rows[next[r as usize]] = row_at(j / trees.len());
            next[r as usize] += 1;
        }
        RuleCoverage { rules, start, rows }
    }

    /// The forest's rules, in [`extract_rules`] order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The rows covered by `rules()[r]`.
    pub fn covered(&self, r: usize) -> &[usize] {
        &self.rows[self.start[r]..self.start[r + 1]]
    }
}
