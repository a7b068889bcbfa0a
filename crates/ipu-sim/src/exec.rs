//! The execution-side program representation.
//!
//! [`crate::Program`] is the user-facing, declarative tree; at compile time
//! the engine lowers it into an [`ExecNode`] tree where every exchange-like
//! node (copy, broadcast, exchange) carries a dense `cost_id` assigned in
//! depth-first lowering order. The `cost_id` indexes the node's copy list
//! in the execution plan, with its cost and bytes precomputed — the
//! mapping is static, so two executions of the same node always move the
//! same bytes. The engine's one walker runs this tree in both execution
//! modes.

use crate::program::Program;
use crate::tensor::{Tensor, TensorSlice};

/// A lowered program node. Mirrors [`Program`] with two changes: broadcasts
/// are folded into [`ExecNode::Copy`] with a precomputed repetition count,
/// and every exchange-like node carries the index of its copy list.
pub(crate) enum ExecNode {
    /// Run sub-programs in order.
    Seq(Vec<ExecNode>),
    /// Run a compute set as one BSP superstep.
    Execute(usize),
    /// One exchange phase delivering `reps` repetitions of `src` into
    /// `dst` (`reps == 1` for plain copies, `dst.len() / src.len()` for
    /// broadcasts).
    Copy {
        src: TensorSlice,
        dst: TensorSlice,
        reps: usize,
        cost_id: u32,
    },
    /// Many independent copies fused into one exchange phase.
    Exchange {
        pairs: Vec<(TensorSlice, TensorSlice)>,
        cost_id: u32,
    },
    /// Fixed-count loop.
    Repeat { count: u64, body: Box<ExecNode> },
    /// Device-predicated loop.
    While {
        predicate: Tensor,
        body: Box<ExecNode>,
    },
    /// Device-predicated branch.
    If {
        predicate: Tensor,
        then_body: Box<ExecNode>,
        else_body: Box<ExecNode>,
    },
}

/// Lowers a validated [`Program`] tree, returning the root node and the
/// number of distinct exchange-like nodes (the number of copy lists).
pub(crate) fn lower(program: &Program) -> (ExecNode, usize) {
    let mut next_cost_id = 0u32;
    let root = lower_node(program, &mut next_cost_id);
    (root, next_cost_id as usize)
}

fn lower_node(program: &Program, next_cost_id: &mut u32) -> ExecNode {
    let mut fresh_id = || {
        let id = *next_cost_id;
        *next_cost_id += 1;
        id
    };
    match program {
        Program::Sequence(items) => {
            ExecNode::Seq(items.iter().map(|p| lower_node(p, next_cost_id)).collect())
        }
        Program::Execute(cs) => ExecNode::Execute(cs.0),
        Program::Copy { src, dst } => ExecNode::Copy {
            src: *src,
            dst: *dst,
            reps: 1,
            cost_id: fresh_id(),
        },
        Program::Broadcast { src, dst } => ExecNode::Copy {
            src: *src,
            dst: *dst,
            // Validated at compile: src is non-empty and divides dst.
            reps: dst.len() / src.len(),
            cost_id: fresh_id(),
        },
        Program::Exchange(pairs) => ExecNode::Exchange {
            pairs: pairs.clone(),
            cost_id: fresh_id(),
        },
        Program::Repeat { count, body } => ExecNode::Repeat {
            count: *count,
            body: Box::new(lower_node(body, next_cost_id)),
        },
        Program::RepeatWhileTrue { predicate, body } => ExecNode::While {
            predicate: *predicate,
            body: Box::new(lower_node(body, next_cost_id)),
        },
        Program::If {
            predicate,
            then_body,
            else_body,
        } => ExecNode::If {
            predicate: *predicate,
            then_body: Box::new(lower_node(then_body, next_cost_id)),
            else_body: Box::new(lower_node(else_body, next_cost_id)),
        },
    }
}

impl ExecNode {
    /// The first compute set executed under this node, if any — used for
    /// divergence diagnostics.
    pub(crate) fn first_compute_set(&self) -> Option<usize> {
        match self {
            ExecNode::Execute(cs) => Some(*cs),
            ExecNode::Seq(items) => items.iter().find_map(ExecNode::first_compute_set),
            ExecNode::Repeat { body, .. } | ExecNode::While { body, .. } => {
                body.first_compute_set()
            }
            ExecNode::If {
                then_body,
                else_body,
                ..
            } => then_body
                .first_compute_set()
                .or_else(|| else_body.first_compute_set()),
            _ => None,
        }
    }

    /// Number of nodes in this lowered subtree — used to size the modeled
    /// program image at engine construction.
    pub(crate) fn node_count(&self) -> u64 {
        match self {
            ExecNode::Seq(items) => 1 + items.iter().map(ExecNode::node_count).sum::<u64>(),
            ExecNode::Execute(_) | ExecNode::Copy { .. } | ExecNode::Exchange { .. } => 1,
            ExecNode::Repeat { body, .. } | ExecNode::While { body, .. } => 1 + body.node_count(),
            ExecNode::If {
                then_body,
                else_body,
                ..
            } => 1 + then_body.node_count() + else_body.node_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeSetId, DType};

    fn dummy_slice(len: usize) -> TensorSlice {
        Tensor {
            id: 0,
            len,
            dtype: DType::F32,
        }
        .whole()
    }

    #[test]
    fn lowering_assigns_dense_cost_ids_in_order() {
        let p = Program::seq(vec![
            Program::copy(dummy_slice(4), dummy_slice(4)),
            Program::repeat(
                3,
                Program::seq(vec![
                    Program::broadcast(dummy_slice(2), dummy_slice(4)),
                    Program::exchange(vec![(dummy_slice(4), dummy_slice(4))]),
                ]),
            ),
        ]);
        let (root, n) = lower(&p);
        assert_eq!(n, 3);
        let ExecNode::Seq(items) = root else {
            panic!("expected sequence");
        };
        match &items[0] {
            ExecNode::Copy { cost_id, reps, .. } => {
                assert_eq!(*cost_id, 0);
                assert_eq!(*reps, 1);
            }
            _ => panic!("expected copy"),
        }
        let ExecNode::Repeat { body, .. } = &items[1] else {
            panic!("expected repeat");
        };
        let ExecNode::Seq(inner) = &**body else {
            panic!("expected inner sequence");
        };
        match &inner[0] {
            ExecNode::Copy { cost_id, reps, .. } => {
                assert_eq!(*cost_id, 1);
                assert_eq!(*reps, 2);
            }
            _ => panic!("expected lowered broadcast"),
        }
        match &inner[1] {
            ExecNode::Exchange { cost_id, .. } => assert_eq!(*cost_id, 2),
            _ => panic!("expected exchange"),
        }
    }

    #[test]
    fn first_compute_set_looks_through_control_flow() {
        let p = Program::seq(vec![
            Program::copy(dummy_slice(4), dummy_slice(4)),
            Program::repeat(2, Program::execute(ComputeSetId(5))),
        ]);
        let (root, _) = lower(&p);
        assert_eq!(root.first_compute_set(), Some(5));
        let (empty, _) = lower(&Program::seq(vec![]));
        assert_eq!(empty.first_compute_set(), None);
    }
}
