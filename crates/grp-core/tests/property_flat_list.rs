//! The flat CSR `AncestorList` against the historical `Vec<BTreeMap>`
//! reference implementation ([`naive`], kept here as the oracle): every
//! operation of the r-operator algebra must agree on arbitrary lists —
//! including *raw* (non-canonical) lists with internal empty levels and
//! cross-level duplicates, which `from_levels` admits and `goodList` is
//! supposed to reject downstream. Also pins the `to_levels`/`from_levels`
//! round trip, the shape the serialized form exposes.

use dyngraph::NodeId;
use grp_core::ancestor_list::{AncestorList, MergeScratch};
use grp_core::marks::Mark;
use naive::NaiveList;
use proptest::prelude::*;

/// The historical `Vec<BTreeMap>` list implementation: the executable
/// reference the flat representation is checked against.
mod naive {
    use dyngraph::NodeId;
    use grp_core::ancestor_list::{AncestorList, Entry};
    use grp_core::marks::Mark;
    use std::collections::{BTreeMap, BTreeSet};

    /// An ancestors' list stored one `BTreeMap` per level.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct NaiveList {
        pub levels: Vec<BTreeMap<NodeId, Mark>>,
    }

    impl NaiveList {
        pub fn from_levels(levels: Vec<Vec<Entry>>) -> Self {
            let mut list = NaiveList {
                levels: levels
                    .into_iter()
                    .map(|level| level.into_iter().collect())
                    .collect(),
            };
            list.trim_trailing_empty();
            list
        }

        /// Convert a flat list to the naive layout.
        pub fn from_flat(flat: &AncestorList) -> Self {
            NaiveList {
                levels: (0..flat.len())
                    .map(|i| flat.level(i).unwrap_or(&[]).iter().copied().collect())
                    .collect(),
            }
        }

        pub fn singleton(node: NodeId) -> Self {
            NaiveList::from_levels(vec![vec![(node, Mark::Clear)]])
        }

        pub fn shifted(&self) -> NaiveList {
            let mut levels = Vec::with_capacity(self.levels.len() + 1);
            levels.push(BTreeMap::new());
            levels.extend(self.levels.iter().cloned());
            NaiveList { levels }
        }

        pub fn merge(&self, other: &NaiveList) -> NaiveList {
            let depth = self.levels.len().max(other.levels.len());
            let mut levels: Vec<BTreeMap<NodeId, Mark>> = Vec::with_capacity(depth);
            for i in 0..depth {
                let mut level: BTreeMap<NodeId, Mark> = BTreeMap::new();
                for side in [self.levels.get(i), other.levels.get(i)]
                    .into_iter()
                    .flatten()
                {
                    for (&n, &m) in side {
                        level
                            .entry(n)
                            .and_modify(|cur| *cur = cur.combine(m))
                            .or_insert(m);
                    }
                }
                levels.push(level);
            }
            // dedup: a node appears only once, at its smallest position
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            for level in &mut levels {
                level.retain(|n, _| seen.insert(*n));
            }
            let mut result = NaiveList { levels };
            result.trim_trailing_empty();
            result
        }

        pub fn ant(&self, other: &NaiveList) -> NaiveList {
            self.merge(&other.shifted())
        }

        pub fn remove_marked_except(&mut self, keep: NodeId) {
            for level in &mut self.levels {
                level.retain(|&n, &mut m| !m.is_marked() || (n == keep && m == Mark::Pending));
            }
            self.trim_trailing_empty();
        }

        pub fn truncate(&mut self, max_levels: usize) {
            self.levels.truncate(max_levels);
            self.trim_trailing_empty();
        }

        fn trim_trailing_empty(&mut self) {
            while matches!(self.levels.last(), Some(l) if l.is_empty()) {
                self.levels.pop();
            }
        }
    }
}

/// An arbitrary *raw* levels value: up to 5 levels of up to 4 entries over
/// ids 0..20, arbitrary marks, duplicates and empty levels allowed.
fn arb_levels() -> impl Strategy<Value = Vec<Vec<(NodeId, Mark)>>> {
    proptest::collection::vec(proptest::collection::vec((0u64..20, 0u8..3), 0..4), 0..5).prop_map(
        |levels| {
            levels
                .into_iter()
                .map(|lvl| {
                    lvl.into_iter()
                        .map(|(id, mark)| {
                            let mark = match mark {
                                0 => Mark::Clear,
                                1 => Mark::Pending,
                                _ => Mark::Incompatible,
                            };
                            (NodeId(id), mark)
                        })
                        .collect()
                })
                .collect()
        },
    )
}

/// The same raw levels through both constructors.
fn both(levels: Vec<Vec<(NodeId, Mark)>>) -> (AncestorList, NaiveList) {
    (
        AncestorList::from_levels(levels.clone()),
        NaiveList::from_levels(levels),
    )
}

/// Flat and naive lists agree when they have the same level-by-level
/// layout. Compared through the layout-preserving `from_flat` conversion —
/// rebuilding a flat list with `from_levels` would canonicalise (trim a
/// trailing empty level), and e.g.
/// `shifted()` of the empty list legitimately carries one.
fn agree(flat: &AncestorList, naive: &NaiveList) -> bool {
    NaiveList::from_flat(flat) == *naive
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn construction_agrees(levels in arb_levels()) {
        let (flat, naive) = both(levels);
        prop_assert!(agree(&flat, &naive));
        // observation APIs line up entry by entry
        for (i, level) in naive.levels.iter().enumerate() {
            let flat_level: Vec<(NodeId, Mark)> =
                flat.level(i).unwrap().to_vec();
            let naive_level: Vec<(NodeId, Mark)> =
                level.iter().map(|(&n, &m)| (n, m)).collect();
            prop_assert_eq!(flat_level, naive_level);
        }
        prop_assert_eq!(flat.len(), naive.levels.len());
        prop_assert_eq!(
            flat.has_empty_level(),
            naive.levels.iter().any(|l| l.is_empty())
        );
    }

    #[test]
    fn merge_agrees(a in arb_levels(), b in arb_levels()) {
        let (fa, na) = both(a);
        let (fb, nb) = both(b);
        prop_assert!(agree(&fa.merge(&fb), &na.merge(&nb)));
    }

    #[test]
    fn shifted_agrees(a in arb_levels()) {
        let (fa, na) = both(a);
        prop_assert!(agree(&fa.shifted(), &na.shifted()));
    }

    #[test]
    fn ant_agrees(a in arb_levels(), b in arb_levels()) {
        let (fa, na) = both(a);
        let (fb, nb) = both(b);
        prop_assert!(agree(&fa.ant(&fb), &na.ant(&nb)));
    }

    /// The scratch-buffered fold `compute()` actually runs: folding a chain
    /// of lists through one reused `MergeScratch` equals both the one-shot
    /// `ant` and the naive reference, whatever stale state the buffers
    /// carry between folds.
    #[test]
    fn ant_assign_fold_agrees(chain in proptest::collection::vec(arb_levels(), 1..4), me in 0u64..20) {
        let mut flat = AncestorList::singleton(NodeId(me));
        let mut naive = NaiveList::singleton(NodeId(me));
        let mut scratch = MergeScratch::default();
        for levels in chain {
            let (fl, nl) = both(levels);
            flat.ant_assign(&fl, &mut scratch);
            naive = naive.ant(&nl);
            prop_assert!(agree(&flat, &naive));
        }
    }

    #[test]
    fn remove_marked_except_agrees(a in arb_levels(), keep in 0u64..20) {
        let (mut fa, mut na) = both(a);
        fa.remove_marked_except(NodeId(keep));
        na.remove_marked_except(NodeId(keep));
        prop_assert!(agree(&fa, &na));
    }

    #[test]
    fn truncate_agrees(a in arb_levels(), max in 0usize..6) {
        let (mut fa, mut na) = both(a);
        fa.truncate(max);
        na.truncate(max);
        prop_assert!(agree(&fa, &na));
    }

    /// `to_levels` is the (de)serialization surface: rebuilding a list from
    /// its own levels is the identity, and the levels match the naive
    /// reference's layout exactly.
    #[test]
    fn to_levels_round_trip_is_stable(a in arb_levels()) {
        let (fa, na) = both(a);
        prop_assert_eq!(AncestorList::from_levels(fa.to_levels()), fa.clone());
        let naive_levels: Vec<Vec<(NodeId, Mark)>> = na
            .levels
            .iter()
            .map(|l| l.iter().map(|(&n, &m)| (n, m)).collect())
            .collect();
        prop_assert_eq!(fa.to_levels(), naive_levels);
    }
}
