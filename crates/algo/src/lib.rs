//! # grape-algo
//!
//! The PIE-program library of GRAPE-RS: the query classes registered in the
//! demo (Section 3(3)) plus the GPAR-based social-media-marketing use case
//! (Fig. 4), each implemented as
//!
//! * a **sequential reference algorithm** (what a textbook user would plug
//!   in),
//! * where applicable a **bounded incremental algorithm** (what IncEval plugs
//!   in), and
//! * the **PIE program** gluing them into [`grape_core::GrapeEngine`].
//!
//! | Module | Query class | PEval | IncEval | Aggregate |
//! |--------|-------------|-------|---------|-----------|
//! | [`sssp`] | single-source shortest paths | Dijkstra | Ramalingam–Reps-style incremental relaxation | `min` |
//! | [`cc`] | connected components | union-find / label propagation | incremental min-label propagation | `min` |
//! | [`pagerank`] | PageRank (extra class used in the analytics panel) | local power iteration | incremental re-iteration from changed border ranks | `sum`-preferring |
//! | [`sim`] | graph pattern matching by simulation | Henzinger–Henzinger–Kopke fixpoint | incremental candidate removal | set intersection (false wins) |
//! | [`subiso`] | subgraph isomorphism | VF2-style backtracking over the local fragment | re-enumeration after receiving replicated border neighbourhoods | neighbourhood union |
//! | [`keyword`] | distance-bounded keyword search | multi-source Dijkstra per keyword | incremental distance relaxation | element-wise `min` |
//! | [`cf`] | collaborative filtering (matrix factorization) | local SGD epoch | SGD epoch folding in remote factor updates | element-wise average |
//! | [`marketing`] | GPAR-based social media marketing | per-person aggregate over followees | refresh after mirror statuses arrive | `or` |

#![warn(missing_docs)]

pub mod cc;
pub mod cf;
pub mod keyword;
pub mod marketing;
pub mod pagerank;
pub mod query;
pub mod sim;
pub mod sssp;
pub mod subiso;

pub use cc::{CcProgram, CcQuery};
pub use cf::{CfModel, CfProgram, CfQuery};
pub use keyword::{KeywordAnswer, KeywordProgram, KeywordQuery};
pub use marketing::{Gpar, MarketingProgram, MarketingQuery, Prospect};
pub use pagerank::{PageRankProgram, PageRankQuery};
pub use query::{
    digest_cf, digest_embeddings, digest_f64_map, digest_keyword, digest_prospects, digest_sim,
    digest_u64_map, dispatch, ClassVisitor, FamilyFragments, Query, QueryClass, QueryResult,
};
pub use sim::{SimMatches, SimProgram, SimQuery, SimQueryError};
pub use sssp::{SsspProgram, SsspQuery};
pub use subiso::{Embeddings, SubIsoProgram, SubIsoQuery};
