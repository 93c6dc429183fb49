//! Rule registries: the names and places each rule family keys on.
//!
//! These are deliberately *data*, kept in one audited module, because
//! they encode contracts that live elsewhere in the workspace:
//!
//! * the split-phase API surface of `cmt-gs` (CMT-L001),
//! * the collective entry points of `simmpi` and `cmt-lb` (CMT-L002).
//!
//! Growing one of those surfaces means growing the matching registry
//! here — the self-check test (`cmt-lint --workspace` must be clean)
//! makes the drift visible either way.

/// Rust keywords: never call names, never resolved.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

/// Names too ubiquitous to resolve by name alone: an edge to every
/// `new` in the workspace would connect the call graph into one blob.
pub const CALL_NAME_STOPLIST: &[&str] = &[
    "new",
    "default",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "set",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "abs",
    "sqrt",
    "powi",
    "powf",
    "clone",
    "drop",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "from",
    "into",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "to_string",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "take",
    "write",
    "writeln",
    "print",
    "extend",
    "extend_from_slice",
    "clear",
    "resize",
    "reserve",
    "with_capacity",
    "split_at",
    "split_at_mut",
    "swap",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "binary_search",
    "position",
    "name",
    "index",
    "deref",
    "borrow",
    "borrow_mut",
    "lock",
    "read",
    "send_to",
    "flush",
    "min_by",
    "max_by",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "retain",
    "rev",
    "zip",
    "enumerate",
    "chain",
    "copied",
    "cloned",
    "count",
    "any",
    "all",
    "find",
    "last",
    "first",
    "chunks",
    "chunks_mut",
    "windows",
    "join",
    "spawn",
    "record",
    // `run` is as ubiquitous as `new`: WorkerPool::run, World::run, the
    // drivers' top-level `run`, ... Resolving it by name would wire the
    // kernel hot paths straight into every driver.
    "run",
    // `send`/`recv` collide with mpsc channels and the transport trait
    // (`self.transport.send(..)` in `raw_send` would resolve to
    // `Rank::send`).
    "send",
    "recv",
];

// --------------------------------------------------------------- L001

/// Split-phase openers: each returns a pending handle that must reach a
/// matching finisher on every control-flow path.
pub const SPLIT_START: &[&str] = &["gs_op_start"];

/// Split-phase finishers (consume the pending handle).
pub const SPLIT_FINISH: &[&str] = &["gs_op_finish"];

/// Calls that legitimately dispose of a pending handle without
/// finishing the exchange (explicit drop-drain: `GsPending`'s `Drop`
/// purges the in-flight traffic through the discard list).
pub const SPLIT_DRAIN: &[&str] = &["drop"];

// --------------------------------------------------------------- L002

/// Collective entry points: every rank must execute the same skeleton
/// of these between two barriers. Includes the `cmt-lb` wrappers that
/// are collectives by contract (all-rank cost gather, crystal-router
/// migration).
pub const COLLECTIVES: &[&str] = &[
    "barrier",
    "bcast",
    "reduce_with",
    "allreduce_with",
    "allreduce_in_place",
    "allreduce_f64",
    "allreduce_u64",
    "allreduce_scalar",
    "exscan_u64",
    "gather",
    "alltoallv",
    "crystal_router",
    "crystal_router_into",
    "gather_costs",
    "migrate_blocks",
];
