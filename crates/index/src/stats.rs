//! Instrumentation counters for index traversals.

use serde::{Deserialize, Serialize};

/// Counters accumulated during a query; used by the index-efficiency
/// experiment (E-IDX) to compare the R-tree against a linear scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Tree nodes (inner + leaf) touched.
    pub nodes_visited: usize,
    /// Leaf nodes touched.
    pub leaves_visited: usize,
    /// Entries (child rectangles or points) examined.
    pub entries_checked: usize,
}

impl QueryStats {
    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.entries_checked += other.entries_checked;
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} node accesses ({} leaves), {} entries checked",
            self.nodes_visited, self.leaves_visited, self.entries_checked
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            nodes_visited: 1,
            leaves_visited: 2,
            entries_checked: 3,
        };
        let b = QueryStats {
            nodes_visited: 10,
            leaves_visited: 20,
            entries_checked: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            QueryStats {
                nodes_visited: 11,
                leaves_visited: 22,
                entries_checked: 33
            }
        );
    }
}
