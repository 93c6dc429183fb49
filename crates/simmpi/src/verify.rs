//! Verifier hook interface: the runtime side of the `cmt-verify` checker.
//!
//! The runtime stays checker-agnostic: it defines the [`VerifyHooks`]
//! trait and calls it at every event a dynamic MPI verifier cares about
//! that no type can rule out — blocking-receive entry/poll/exit (the
//! wait-for-graph feed), collective entry (fingerprint matching), and
//! rank finalization (message-leak detection). An abandoned split-phase
//! exchange needs no hook: dropping an unfinished `GsPending` panics in
//! `cmt-gs`, with or without a verifier.
//! The `cmt-verify` crate supplies the implementation; a world without a
//! verifier pays one `Option` check per event. A verifier runs
//! in-process only: [`crate::World::run_dist`] refuses a socket world
//! that has one.
//!
//! Two hook results steer the runtime:
//!
//! * [`VerifyHooks::on_block_poll`] may return a deadlock diagnostic, in
//!   which case the blocked rank poisons the world and panics with it —
//!   turning a 300-second timeout into a sub-second, fully explained
//!   abort;
//! * [`VerifyHooks::on_collective`] may return a mismatch diagnostic,
//!   aborting the offending collective *before* its internal messages can
//!   entangle the tag space.

use crate::rank::Tag;

/// Which collective a fingerprint describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Dissemination barrier.
    Barrier,
    /// Allreduce (reduce-to-0 + broadcast).
    Allreduce,
    /// Hillis–Steele exclusive scan.
    Exscan,
    /// Pairwise-exchange alltoallv.
    Alltoallv,
    /// Crystal-router generalized all-to-all.
    CrystalRouter,
}

impl CollKind {
    /// Display name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Barrier => "barrier",
            CollKind::Allreduce => "allreduce",
            CollKind::Exscan => "exscan",
            CollKind::Alltoallv => "alltoallv",
            CollKind::CrystalRouter => "crystal_router",
        }
    }
}

/// One rank's view of one collective call, checked against its peers'.
///
/// `len` is `Some` exactly for the kinds whose element count every rank
/// must agree on (allreduce, exscan); it is `None` for a barrier and for
/// alltoallv and crystal-router payloads, which legitimately differ per
/// rank.
#[derive(Debug, Clone, Copy)]
pub struct CollFingerprint<'a> {
    /// The collective's kind.
    pub kind: CollKind,
    /// The element type as its wire id (a [`crate::Msg`] type's
    /// `WIRE_ID`), 0 for barriers; [`CollFingerprint::elem_type`] names it.
    pub elem: u16,
    /// Element count this rank contributed, where the algorithm requires
    /// rank agreement.
    pub len: Option<usize>,
    /// The caller's context label (the mpiP call-site analogue).
    pub context: &'a str,
}

impl CollFingerprint<'_> {
    /// The element type's name (`std::any::type_name`), empty for
    /// barriers.
    pub fn elem_type(&self) -> &'static str {
        crate::wire::elem_type_name(self.elem).unwrap_or("<unknown element type>")
    }
}

/// One message found unreceived when a rank finalized.
#[derive(Debug, Clone)]
pub struct LeakInfo {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Wire-equivalent payload size.
    pub bytes: u64,
    /// The sender's context label at send time, when the runtime
    /// recorded one.
    pub sender_context: Option<String>,
}

/// Checker callbacks invoked by the runtime. All methods take `&self`:
/// implementations are shared across the world's rank threads.
pub trait VerifyHooks: Send + Sync + std::fmt::Debug {
    /// The world is about to spawn `size` ranks.
    fn on_start(&self, size: usize);

    /// `rank` entered collective `seq` with fingerprint `fp`. An `Err`
    /// diagnostic makes the rank poison the world and panic before the
    /// collective exchanges anything.
    fn on_collective(&self, rank: usize, seq: u64, fp: CollFingerprint<'_>) -> Result<(), String>;

    /// `rank` has been blocked in a receive for at least one poll
    /// interval. Returns an id identifying this blocked episode in
    /// subsequent [`VerifyHooks::on_block_poll`] / `on_unblock` calls.
    fn on_block(&self, rank: usize, src: usize, tag: Tag, context: &str) -> u64;

    /// Periodic progress poll while `rank` stays blocked. A `Some`
    /// diagnostic reports a confirmed deadlock: the rank poisons the
    /// world and panics with it.
    fn on_block_poll(&self, rank: usize, block_id: u64) -> Option<String>;

    /// The blocked receive `block_id` on `rank` matched a message.
    fn on_unblock(&self, rank: usize, block_id: u64);

    /// `rank`'s SPMD closure returned. `coll_seq` is its final collective
    /// count; `leaked` are messages still sitting unmatched in its
    /// mailbox after a finalize barrier.
    fn on_finalize(&self, rank: usize, coll_seq: u64, leaked: &[LeakInfo]);
}
