//! Rule registries: the names and places each rule family keys on.
//!
//! These are deliberately *data*, kept in one audited module, because
//! they encode contracts that live elsewhere in the workspace:
//!
//! * the split-phase API surface of `cmt-gs` (CMT-L001),
//! * the collective entry points of `simmpi` and `cmt-lb` (CMT-L002),
//! * the zero-allocation regions the tier-1 `tests/alloc_free.rs`
//!   counting-allocator tests assert dynamically
//!   (CMT-L003 roots), plus the pool entry points blessed to allocate,
//! * the socket wire format's closed payload registry in
//!   `simmpi::wire` (CMT-L004).
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
/// Calls to these are still visible to token-level rules (CMT-L003
/// flags `clone`/`collect`/... directly); they just don't create
/// interprocedural edges.
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
    // kernel hot paths straight into every driver. Closure bodies are
    // attributed to their enclosing fn, so `pool.run(&|c| ...)` loses
    // no hot-path coverage by skipping the edge.
    "run",
    // `send`/`recv` collide with mpsc channels and the transport trait
    // (`self.transport.send(..)` in `raw_send` would resolve to
    // `Rank::send`). The product hot paths use the pooled variants
    // (`isend_pooled`/`wait_recv_pooled`), which resolve normally.
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

// --------------------------------------------------------------- L003

/// Zero-allocation roots: the functions behind the steady-state regions
/// that the `tests/alloc_free.rs` tests assert allocate
/// nothing per timestep (`gs_op*` for cmt-bone, `dssum*` via nekbone's
/// assembled apply, the overlap-window `deriv`/`dealias` kernels), plus
/// the pooled LB traffic paths (`gather_costs`/`migrate_blocks`) whose
/// crystal-router frames ride the same buffer pool.
///
/// `tensor3_apply` (without `_scratch`) is deliberately absent: it is
/// the documented allocating convenience wrapper; the driver's dealias
/// path calls the `_scratch` form with per-chunk buffers.
pub const HOT_ROOTS: &[&str] = &[
    "gs_op",
    "gs_op_many",
    "gs_op_start",
    "gs_op_finish",
    "apply_assembled",
    "apply_assembled_dot",
    "deriv",
    "grad",
    "tensor3_apply_scratch",
    "tensor3_apply_scratch_variant",
    "gather_costs",
    "migrate_blocks",
];

/// Traversal barriers: audited subsystems a hot path may call but whose
/// internals are out of scope for CMT-L003.
///
/// * Pool entry points (`take`/`adopt`/`pooled_vec`/`detach`): a miss
///   allocates by design and is tracked by the pool's hit/miss
///   counters; the steady state is all hits.
/// * Profiler instrumentation (`enter`/`exit`/`charge_allocs`,
///   context labels): its hot path is allocation-free by construction
///   (recycled region-name strings) and is asserted separately by the
///   counting-allocator tests.
/// * Verifier hooks (`verify_*` wrappers and the `on_*` hook-trait
///   methods): no-ops unless a verifier is installed, and an installed
///   verifier is a debug harness outside the zero-alloc contract.
pub const ALLOC_BARRIERS: &[&str] = &[
    "take",
    "adopt",
    "pooled_vec",
    "detach",
    "enter",
    "exit",
    "charge_allocs",
    "set_context",
    "with_context",
    "with_subcontext",
    "with_op_badge",
    "verify_exchange_start",
    "verify_exchange_finish",
    "verify_slot_access",
    "verify_note_access",
    "verify_finalize",
    "on_start",
    "on_send",
    "on_recv",
    "on_collective",
    "on_block",
    "on_block_poll",
    "on_unblock",
    "on_exchange_start",
    "on_exchange_finish",
    "on_slot_access",
    "on_discarded",
    "on_finalize",
];

/// Method-call names that allocate.
pub const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "clone",
    "into_boxed_slice",
    "repeat",
];

/// `Type::ctor` path calls that allocate.
pub const ALLOC_PATH_CALLS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Macros that allocate.
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];

// --------------------------------------------------------------- L004

/// Element types in `simmpi::wire`'s closed payload registry: the only
/// types a data envelope can carry across the socket transport.
pub const WIRE_PRIMITIVES: &[&str] = &["f64", "u64", "u8", "u32", "usize", "RoutedMsg"];

/// Transport payload positions: APIs whose element type crosses the
/// rank boundary and therefore must be wire-encodable.
pub const PAYLOAD_APIS: &[&str] = &[
    "send",
    "send_vec",
    "isend",
    "isend_vec",
    "isend_pooled",
    "recv",
    "wait_recv",
    "wait_recv_pooled",
    "waitall_recv",
    "bcast",
    "crystal_router",
    "crystal_router_into",
    "alltoallv",
    "gather",
];
