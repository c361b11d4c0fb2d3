//! Registry half of the join accounting contract: one self-join moves the
//! process-global `join.*` counters by exactly its [`JoinStats`].
//!
//! This binary holds a single test on purpose. Integration tests run in
//! their own process, so nothing else touches the `join.*` counters
//! between the before and after reads and the deltas can be asserted
//! exactly. (In the crate's lib tests, sibling join tests bump the same
//! counters in parallel.)
//!
//! [`JoinStats`]: treesim_search::JoinStats

use treesim_search::{similarity_self_join, NoFilter};
use treesim_tree::Forest;

#[test]
fn self_join_moves_the_registry_by_its_stats() {
    let mut forest = Forest::new();
    for spec in [
        "a(b(c(d)) b e)",
        "a(c(d) b e)",
        "a(b(c(d)) b e)",
        "x(y z)",
        "a(b c)",
        "a(b(c(d)) b e f)",
    ] {
        forest.parse_bracket(spec).expect("valid bracket spec");
    }
    let filter = NoFilter::build(&forest);
    let queries_before = treesim_obs::metrics::counter("join.queries").get();
    let joined_before = treesim_obs::metrics::counter("join.pairs.joined").get();
    let cutoffs_before = treesim_obs::metrics::counter("join.pairs.cutoffs").get();
    let (_, stats) = similarity_self_join(&forest, &filter, 1);
    assert!(stats.pairs_cutoff > 0);
    assert_eq!(
        treesim_obs::metrics::counter("join.queries").get(),
        queries_before + 1
    );
    assert_eq!(
        treesim_obs::metrics::counter("join.pairs.joined").get(),
        joined_before + stats.pairs_joined as u64
    );
    assert_eq!(
        treesim_obs::metrics::counter("join.pairs.cutoffs").get(),
        cutoffs_before + stats.pairs_cutoff as u64
    );
}
