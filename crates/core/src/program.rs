//! The PIE program trait.

use crate::context::PieContext;
use grape_comm::{MessageSize, Wire, WireError, WireReader};
use grape_graph::delta::MutationProfile;
use grape_graph::VertexId;
use grape_partition::Fragment;
use std::fmt::Debug;
use std::sync::Arc;

/// A PIE program: three sequential functions (PEval, IncEval, Assemble) plus
/// the declarations that the paper adds to them — the update-parameter value
/// type, its aggregate function and (optionally) the partial order that makes
/// the computation monotonic.
///
/// Implementations plug *existing sequential algorithms* in: `peval` is the
/// textbook algorithm run on a fragment, `inceval` its incremental variant,
/// `assemble` usually a simple union/merge.
pub trait PieProgram: Send + Sync {
    /// The query type (e.g. the source vertex for SSSP, a pattern graph for
    /// SubIso).
    type Query: Clone + Send + Sync;
    /// Vertex payload of the graphs this program runs on.
    type VertexData: Clone + Default + Send + Sync;
    /// Edge payload of the graphs this program runs on.
    type EdgeData: Clone + Send + Sync;
    /// Domain of the update parameters attached to border vertices. The
    /// [`Wire`] bound gives every value a canonical frame encoding, so any
    /// program can run over the framed / multi-process transports unchanged.
    type Value: Clone + PartialEq + Debug + Send + MessageSize + Wire + 'static;
    /// Per-fragment partial result maintained across supersteps.
    type Partial: Send;
    /// Final query answer produced by [`PieProgram::assemble`].
    type Output;

    /// Partial evaluation: compute `Q(F_i)` on one fragment and declare the
    /// initial values of the update parameters through `ctx`.
    fn peval(
        &self,
        query: &Self::Query,
        fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        ctx: &mut PieContext<Self::Value>,
    ) -> Self::Partial;

    /// Incremental evaluation: apply the message `M_i` (aggregated border
    /// values) to the partial result, updating any border values that change
    /// through `ctx`.
    ///
    /// Each message is `(pos, value)` with `pos` a *border position*: the
    /// index into `fragment.border_vertices()` / `border_dense_indices()`,
    /// the address space of [`PieContext::update_at`] — no global-id lookup
    /// on the superstep path. A position appears at most once per call. A
    /// value published here that equals the one delivered for its position
    /// is not reported back (the echo rule, see [`PieContext`]).
    ///
    /// Publish the positions whose value may have moved in this call, in
    /// ascending position order. Re-publishing a value the context already
    /// holds is harmless — it is not reported — but it is work: a walk over
    /// every border position makes IncEval O(|border|) per superstep however
    /// few values moved, where the paper's IncEval is bounded by the change.
    fn inceval(
        &self,
        query: &Self::Query,
        fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        partial: &mut Self::Partial,
        messages: &[(u32, Self::Value)],
        ctx: &mut PieContext<Self::Value>,
    );

    /// Combines the partial results of all fragments into `Q(G)`.
    fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output;

    /// Conflict resolution: when several workers propose values for the same
    /// border vertex, the coordinator folds them with this function (e.g.
    /// `min` for shortest distances).
    fn aggregate(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// The partial order underpinning the Assurance Theorem: returns
    /// `Some(true)` if `new` is at or below `old` in the order (i.e. the
    /// update is monotone), `Some(false)` if the order is violated, and
    /// `None` if the program does not declare an order. The engine only
    /// consults this when [`crate::EngineConfig::check_monotonicity`] is set.
    fn monotonic(&self, _old: &Self::Value, _new: &Self::Value) -> Option<bool> {
        None
    }

    /// Serializes a partial result for checkpointing. Programs that support
    /// worker-loss recovery return `Some(bytes)` such that
    /// [`PieProgram::restore_partial`] rebuilds a bit-identical partial on a
    /// replacement worker; the default `None` marks the program as
    /// non-recoverable (the engine then reports a typed error instead of
    /// recovering).
    fn snapshot_partial(&self, _partial: &Self::Partial) -> Option<Vec<u8>> {
        None
    }

    /// Rebuilds a partial result from [`PieProgram::snapshot_partial`] bytes.
    /// Must be the exact inverse: `restore(snapshot(p))` behaves identically
    /// to `p` for all subsequent IncEval calls. The default `None` matches
    /// the default non-recoverable `snapshot_partial`.
    fn restore_partial(&self, _bytes: &[u8]) -> Option<Self::Partial> {
        None
    }

    /// Whether a converged partial of a *previous* run may seed a warm
    /// (incremental) run after a mutation batch with the given profile.
    /// Programs opt in per profile — e.g. SSSP and CC only for insert-only
    /// batches (their orders only tighten under insertions), graph simulation
    /// only for delete-only batches. The default `false` makes every update
    /// fall back to a cold PEval, which is always correct.
    fn incremental_eligible(&self, _profile: &MutationProfile) -> bool {
        false
    }

    /// Warm-start replacement for [`PieProgram::peval`]: rebuild a partial
    /// from the `snapshot` bytes of the previous run's converged partial
    /// (same fragment, pre-mutation), re-evaluate only from the
    /// update-induced `dirty` vertices, and declare border values through
    /// `ctx` exactly as PEval would. Returning `None` (the default) tells the
    /// engine to run the cold `peval` for this fragment instead.
    ///
    /// Contract: for profiles accepted by
    /// [`PieProgram::incremental_eligible`], the fixpoint reached from this
    /// seed must be bit-identical to a cold run on the mutated graph.
    fn seed_partial(
        &self,
        _query: &Self::Query,
        _fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        _snapshot: &[u8],
        _dirty: &[VertexId],
        _profile: &MutationProfile,
        _ctx: &mut PieContext<Self::Value>,
    ) -> Option<Self::Partial> {
        None
    }

    /// Encodes what Assemble needs of one fragment's converged partial, for
    /// a worker that sends its result across a process boundary, when that
    /// is less than the whole partial: a program whose answer is one value
    /// per vertex sends only its owners' values ([`encode_owner_column`]).
    /// The default `None` means the answer is the whole partial, its
    /// [`PieProgram::snapshot_partial`] bytes — which a daemon that keeps the
    /// snapshot anyway ships without taking a second one.
    fn encode_answer(
        &self,
        _fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        _partial: &Self::Partial,
    ) -> Option<Vec<u8>> {
        None
    }

    /// Assembles `Q(G)` from every fragment's answer — its
    /// [`PieProgram::encode_answer`] bytes, or its snapshot where that
    /// declines — given in fragment order beside the fragments they came from.
    /// The bytes come from a peer, so an answer that does not decode is an
    /// error, never a panic. The default restores each partial and runs
    /// [`PieProgram::assemble`]; either way the output equals `assemble` of
    /// the partials the answers were encoded from.
    fn assemble_answers(
        &self,
        fragments: &[Arc<Fragment<Self::VertexData, Self::EdgeData>>],
        answers: &[Vec<u8>],
    ) -> Result<Self::Output, WireError> {
        debug_assert_eq!(fragments.len(), answers.len());
        let partials = answers
            .iter()
            .enumerate()
            .map(|(f, bytes)| {
                self.restore_partial(bytes).ok_or_else(|| {
                    WireError::Refused(format!("the answer of fragment {f} does not restore"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(self.assemble(partials))
    }

    /// Human-readable name used in statistics and benchmark tables.
    fn name(&self) -> &str {
        "pie-program"
    }
}

/// Encodes one value per inner vertex of `fragment`, in
/// [`Fragment::inner_dense_indices`] order, as a `Vec<T>` — the answer of a
/// program whose output holds each vertex once, from its owner.
/// `value_at(i)` reads the value of local dense index `i`.
pub fn encode_owner_column<V: Clone, E: Clone, T: Wire>(
    fragment: &Fragment<V, E>,
    value_at: impl Fn(u32) -> T,
) -> Vec<u8> {
    let inner = fragment.inner_dense_indices();
    let mut out = Vec::with_capacity(4 + inner.len() * std::mem::size_of::<T>());
    (inner.len() as u32).encode(&mut out);
    for &i in inner {
        value_at(i).encode(&mut out);
    }
    out
}

/// Decodes the [`encode_owner_column`] answers of every fragment, in
/// fragment order. Each must hold exactly one value per inner vertex of its
/// fragment ([`Fragment::num_inner`]) and nothing after them; anything else
/// is refused with the fragment named.
pub fn owner_columns<V: Clone, E: Clone, T: Wire>(
    fragments: &[Arc<Fragment<V, E>>],
    answers: &[Vec<u8>],
) -> Result<Vec<Vec<T>>, WireError> {
    fragments
        .iter()
        .zip(answers)
        .enumerate()
        .map(|(f, (fragment, bytes))| {
            let mut reader = WireReader::new(bytes);
            let column = Vec::<T>::decode(&mut reader)
                .and_then(|column| reader.finish().map(|()| column))
                .map_err(|e| {
                    WireError::Refused(format!("the answer of fragment {f} does not decode: {e}"))
                })?;
            if column.len() != fragment.num_inner() {
                return Err(WireError::Refused(format!(
                    "the answer of fragment {f} holds {} values for its {} inner vertices",
                    column.len(),
                    fragment.num_inner()
                )));
            }
            Ok(column)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_partition::{build_fragments, HashPartitioner, Partitioner};

    /// A minimal PIE program used to exercise the trait: propagate the
    /// minimum vertex id over the whole graph (a degenerate form of CC where
    /// the answer is a single number).
    struct MinId;

    impl PieProgram for MinId {
        type Query = ();
        type VertexData = ();
        type EdgeData = f64;
        type Value = u64;
        type Partial = u64;
        type Output = u64;

        fn peval(&self, _q: &(), fragment: &Fragment<(), f64>, ctx: &mut PieContext<u64>) -> u64 {
            let local_min = fragment
                .inner_vertices()
                .iter()
                .copied()
                .min()
                .unwrap_or(u64::MAX);
            for &b in fragment.border_vertices() {
                ctx.update(b, local_min);
            }
            local_min
        }

        fn inceval(
            &self,
            _q: &(),
            fragment: &Fragment<(), f64>,
            partial: &mut u64,
            messages: &[(u32, u64)],
            ctx: &mut PieContext<u64>,
        ) {
            let incoming = messages.iter().map(|(_, v)| *v).min().unwrap_or(u64::MAX);
            if incoming < *partial {
                *partial = incoming;
                for &b in fragment.border_vertices() {
                    ctx.update(b, *partial);
                }
            }
        }

        fn assemble(&self, partials: Vec<u64>) -> u64 {
            partials.into_iter().min().unwrap_or(u64::MAX)
        }

        fn aggregate(&self, a: &u64, b: &u64) -> u64 {
            *a.min(b)
        }

        fn monotonic(&self, old: &u64, new: &u64) -> Option<bool> {
            Some(new <= old)
        }

        fn name(&self) -> &str {
            "min-id"
        }
    }

    #[test]
    fn trait_methods_have_sane_defaults() {
        let p = MinId;
        assert_eq!(p.aggregate(&3, &5), 3);
        assert_eq!(p.monotonic(&5, &3), Some(true));
        assert_eq!(p.monotonic(&3, &5), Some(false));
        assert_eq!(p.name(), "min-id");
    }

    #[test]
    fn peval_and_inceval_compose_by_hand() {
        // Drive the program manually on two fragments of a 4-cycle to check
        // the trait contract independent of the engine.
        let mut b = grape_graph::GraphBuilder::<(), f64>::new();
        for v in 0..4u64 {
            b.add_edge(v, (v + 1) % 4, 1.0);
        }
        let g = b.build().unwrap();
        let a = HashPartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &a);
        let p = MinId;
        let mut ctxs: Vec<PieContext<u64>> = frags.iter().map(|_| PieContext::new()).collect();
        let mut partials: Vec<u64> = frags
            .iter()
            .zip(ctxs.iter_mut())
            .map(|(f, c)| p.peval(&(), f, c))
            .collect();
        // Exchange: feed every fragment the global minimum proposal.
        let global_min = *partials.iter().min().unwrap();
        for ((f, c), partial) in frags.iter().zip(ctxs.iter_mut()).zip(partials.iter_mut()) {
            let msgs: Vec<(u32, u64)> = (0..f.border_vertices().len() as u32)
                .map(|pos| (pos, global_min))
                .collect();
            p.inceval(&(), f, partial, &msgs, c);
        }
        assert_eq!(p.assemble(partials), 0);
    }
}
