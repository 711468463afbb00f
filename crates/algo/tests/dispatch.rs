//! The class dispatcher against both payload families: every class resolves
//! to its program and result variant, and what it must refuse is refused
//! before the visitor runs.

use grape_algo::{dispatch, ClassVisitor, FamilyFragments, Query, QueryClass, QueryResult};
use grape_core::{Fragment, PieProgram};
use grape_graph::labels::{LabeledVertex, PatternGraph};
use std::io;
use std::sync::Arc;

/// Both families of a small loaded graph, cut in two.
struct Loaded {
    weighted: Vec<Arc<Fragment<(), f64>>>,
    labeled: Vec<Arc<Fragment<LabeledVertex, String>>>,
}

impl Loaded {
    fn new() -> Loaded {
        use grape_graph::generators::{barabasi_albert, labeled_social, SocialGraphConfig};
        use grape_partition::{build_fragments, BuiltinStrategy};
        fn cut<V: Clone + Default, E: Clone>(
            graph: &grape_graph::CsrGraph<V, E>,
        ) -> Vec<Arc<Fragment<V, E>>> {
            let assignment = BuiltinStrategy::Hash.partition(graph, 2);
            let fragments = build_fragments(graph, &assignment);
            fragments.into_iter().map(Arc::new).collect()
        }
        let social = SocialGraphConfig {
            num_persons: 20,
            num_products: 3,
            ..Default::default()
        };
        Loaded {
            weighted: cut(&barabasi_albert(40, 2, 3).unwrap()),
            labeled: cut(&labeled_social(social, 3).unwrap()),
        }
    }

    fn family(&self, labeled: bool) -> FamilyFragments<'_> {
        if labeled {
            FamilyFragments::Labeled(&self.labeled)
        } else {
            FamilyFragments::Weighted(&self.weighted)
        }
    }
}

/// Runs the resolved program in-process and wraps its output.
struct RunInProcess;

impl ClassVisitor for RunInProcess {
    type Out = QueryResult;

    fn visit<P: PieProgram>(
        self,
        program: P,
        query: P::Query,
        wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<QueryResult> {
        let run = grape_core::GrapeEngine::new(program).run(&query, fragments);
        Ok(wrap(
            run.map_err(|e| io::Error::other(e.to_string()))?.output,
        ))
    }
}

#[test]
fn canonical_queries_cover_every_class() {
    for class in QueryClass::all() {
        assert_eq!(Query::canonical(class, 7).class(), class);
    }
    assert_eq!(Query::canonical(QueryClass::Sssp, 7), Query::sssp(7));
    assert_eq!(
        Query::canonical(QueryClass::Marketing, 7),
        Query::marketing(7)
    );
    assert_eq!(Query::canonical(QueryClass::Sim, 7), Query::canonical_sim());
}

#[test]
fn dispatch_resolves_every_class_to_its_program_and_result_variant() {
    let loaded = Loaded::new();
    for class in QueryClass::all() {
        // Vertex 20 is the social graph's first product, and a fine source.
        let query = Query::canonical(class, 20);
        let fragments = loaded.family(class.is_labeled());
        let result = dispatch(&query, 40, fragments, RunInProcess)
            .unwrap_or_else(|e| panic!("{}: {e}", class.name()));
        assert_eq!(result.class(), class);
    }
}

#[test]
fn dispatch_refuses_a_query_of_the_other_family() {
    let loaded = Loaded::new();
    for class in QueryClass::all() {
        let query = Query::canonical(class, 20);
        let err = dispatch(&query, 40, loaded.family(!class.is_labeled()), RunInProcess)
            .expect_err("wrong family");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{}", class.name());
        let message = err.to_string();
        assert!(
            message.contains(class.name()) && message.contains("graph family"),
            "unhelpful error: {message}"
        );
    }
}

#[test]
fn dispatch_validates_a_simulation_pattern_before_visiting() {
    /// Must never run: the pattern is refused first.
    struct Unreachable;
    impl ClassVisitor for Unreachable {
        type Out = ();
        fn visit<P: PieProgram>(
            self,
            _: P,
            _: P::Query,
            _: impl Fn(P::Output) -> QueryResult,
            _: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
        ) -> io::Result<()> {
            panic!("the visitor ran on an invalid pattern")
        }
    }
    let loaded = Loaded::new();
    let wide = Query::sim(PatternGraph::new(vec!["person".into(); 65]));
    let err = dispatch(&wide, 23, loaded.family(true), Unreachable).expect_err("too wide");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("invalid simulation pattern"));
    let dangling = Query::sim(PatternGraph::new(vec!["person".into()]).edge(0, 5));
    assert!(dispatch(&dangling, 23, loaded.family(true), Unreachable).is_err());
}
