//! # cmt-verify
//!
//! A MUST/ISP-style dynamic correctness checker for the [`simmpi`]
//! message-passing runtime. Install a [`Verifier`] on a world
//! ([`simmpi::World::with_verifier`]) and the runtime feeds it every
//! communication event; the checker accumulates [`Finding`]s instead of
//! letting bugs manifest as hangs, silent corruption, or 300-second
//! timeouts:
//!
//! * **Deadlock detection** — blocked receives (point-to-point and
//!   collective-internal) feed a wait-for graph; a cycle that stays
//!   stable for a grace window is a confirmed deadlock, reported with a
//!   rank-by-rank dump (call site, awaited source, tag) instead of a
//!   timeout.
//! * **Collective matching** — every collective entry registers a
//!   fingerprint (kind, element type, length, call site) under its
//!   SPMD sequence number; the first cross-rank disagreement aborts the
//!   collective with both call sites named, before its internal messages
//!   can entangle the tag space.
//! * **Message-leak detection** — when a rank's SPMD closure returns,
//!   the runtime barriers and sweeps its mailbox and reports every
//!   unreceived send per rank.
//!
//! It holds only what the types and the gather–scatter layer cannot: a
//! write to exchanged slots while an exchange is in flight is a compile
//! error through `cmt_gs::GsHandle::overlapped`, and a split-phase
//! exchange dropped unfinished panics in `cmt_gs` itself, with or
//! without a verifier, so neither has a finding here.
//!
//! Pair with a seeded delay fault plan
//! ([`simmpi::World::with_fault_plan`], e.g.
//! `delay:prob=0.25,us=150;seed=7`) to explore interleavings the default
//! schedule never exhibits, under the checker, in CI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use simmpi::rank::USER_TAG_LIMIT;
use simmpi::{CollFingerprint, CollKind, LeakInfo, Tag, VerifyHooks};

/// What class of defect a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A stable wait-for cycle among blocked ranks.
    Deadlock,
    /// Ranks disagreed on a collective's fingerprint (or on how many
    /// collectives they executed).
    CollectiveMismatch,
    /// A message was still unmatched in a rank's mailbox at finalize.
    MessageLeak,
}

impl FindingKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::Deadlock => "deadlock",
            FindingKind::CollectiveMismatch => "collective-mismatch",
            FindingKind::MessageLeak => "message-leak",
        }
    }
}

/// One defect the checker observed.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Defect class.
    pub kind: FindingKind,
    /// The rank the defect was observed on (for cross-rank defects, the
    /// rank that completed the evidence).
    pub rank: usize,
    /// Human-readable diagnostic with call sites, peers, and tags.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] rank {}: {}",
            self.kind.name(),
            self.rank,
            self.detail
        )
    }
}

/// Render a finding list as the standard report block: one line per
/// finding, or a clean bill of health. [`Verifier::render`] and the
/// mini-app run reports share this format.
pub fn render_findings(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return String::from("cmt-verify: clean (0 findings)\n");
    }
    let mut out = format!("cmt-verify: {} finding(s)\n", findings.len());
    for f in findings {
        out.push_str("  ");
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Render a tag for diagnostics: collective-internal tags are decoded
/// into their sequence number and round, user tags print as-is.
fn fmt_tag(tag: Tag) -> String {
    if tag >= USER_TAG_LIMIT {
        let seq = (tag & !USER_TAG_LIMIT) >> 12;
        let round = tag & 0xfff;
        format!("collective #{seq} round {round} (tag {tag:#x})")
    } else {
        format!("tag {tag:#x}")
    }
}

fn fmt_len(len: Option<usize>) -> String {
    match len {
        Some(n) => n.to_string(),
        None => "?".into(),
    }
}

/// A blocked-receive episode, one node of the wait-for graph.
#[derive(Debug, Clone)]
struct Blocked {
    id: u64,
    src: usize,
    tag: Tag,
    context: String,
}

/// The first-registered fingerprint of one collective sequence number.
#[derive(Debug)]
struct CollRecord {
    kind: CollKind,
    elem_type: &'static str,
    len: Option<usize>,
    context: String,
    first_rank: usize,
    arrived: usize,
}

fn describe(kind: CollKind, elem_type: &str, len: Option<usize>) -> String {
    format!("{}({elem_type}, len={})", kind.name(), fmt_len(len))
}

#[derive(Debug, Default)]
struct Inner {
    size: usize,
    /// Currently blocked ranks (wait-for graph nodes).
    blocked: HashMap<usize, Blocked>,
    next_block_id: u64,
    /// A wait-for cycle awaiting its stability grace window:
    /// `(normalized cycle of (rank, block id), first seen)`.
    candidate: Option<(Vec<(usize, u64)>, Instant)>,
    deadlock_reported: bool,
    /// In-flight collective fingerprints, keyed by SPMD sequence number;
    /// entries retire once every rank has checked in.
    collectives: HashMap<u64, CollRecord>,
    /// Final collective count per rank, filled at finalize.
    final_seqs: Vec<Option<u64>>,
    final_seq_checked: bool,
    findings: Vec<Finding>,
}

/// The checker: implement of [`simmpi::VerifyHooks`] that turns runtime
/// events into [`Finding`]s. Share one `Arc<Verifier>` with
/// [`simmpi::World::with_verifier`], run the world, then read
/// [`Verifier::findings`] / [`Verifier::render`].
#[derive(Debug)]
pub struct Verifier {
    /// How long a wait-for cycle must stay unchanged before it is
    /// declared a deadlock. Must cover a few runtime poll intervals so a
    /// message already in flight can dissolve a transient cycle.
    grace: Duration,
    inner: Mutex<Inner>,
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

impl Verifier {
    /// A checker with the default 250 ms deadlock grace window.
    pub fn new() -> Verifier {
        Verifier {
            grace: Duration::from_millis(250),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Override the deadlock grace window (tests shorten it).
    pub fn with_grace(mut self, grace: Duration) -> Verifier {
        self.grace = grace;
        self
    }

    /// All findings recorded so far, in observation order.
    pub fn findings(&self) -> Vec<Finding> {
        self.inner.lock().unwrap().findings.clone()
    }

    /// Whether the run produced no findings.
    pub fn is_clean(&self) -> bool {
        self.inner.lock().unwrap().findings.is_empty()
    }

    /// Findings of one class.
    pub fn findings_of(&self, kind: FindingKind) -> Vec<Finding> {
        self.inner
            .lock()
            .unwrap()
            .findings
            .iter()
            .filter(|f| f.kind == kind)
            .cloned()
            .collect()
    }

    /// Human-readable report: one line per finding, or a clean bill.
    pub fn render(&self) -> String {
        render_findings(&self.findings())
    }

    fn push_finding(inner: &mut Inner, kind: FindingKind, rank: usize, detail: String) {
        inner.findings.push(Finding { kind, rank, detail });
    }

    /// Walk the wait-for graph from `rank`; if the walk closes a cycle,
    /// return it normalized (rotated so the smallest rank leads), so
    /// every member's poll sees the identical value.
    fn find_cycle(inner: &Inner, rank: usize) -> Option<Vec<(usize, u64)>> {
        let mut path: Vec<(usize, u64)> = Vec::new();
        let mut index: HashMap<usize, usize> = HashMap::new();
        let mut cur = rank;
        loop {
            let b = inner.blocked.get(&cur)?;
            if let Some(&i) = index.get(&cur) {
                let mut cycle = path[i..].to_vec();
                let lead = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(r, _))| r)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(lead);
                return Some(cycle);
            }
            index.insert(cur, path.len());
            path.push((cur, b.id));
            cur = b.src;
        }
    }

    fn deadlock_dump(inner: &Inner, cycle: &[(usize, u64)], observer: usize) -> String {
        let mut out = format!(
            "cmt-verify: DEADLOCK — wait-for cycle among {} rank(s), stable past the grace window:\n",
            cycle.len()
        );
        for &(r, _) in cycle {
            if let Some(b) = inner.blocked.get(&r) {
                out.push_str(&format!(
                    "  rank {r}: blocked in recv from rank {} on {} at call site {:?}\n",
                    b.src,
                    fmt_tag(b.tag),
                    b.context
                ));
            }
        }
        if !cycle.iter().any(|&(r, _)| r == observer) {
            if let Some(b) = inner.blocked.get(&observer) {
                out.push_str(&format!(
                    "  (observed from rank {observer}, itself blocked on rank {} at call site {:?}, waiting into the cycle)\n",
                    b.src, b.context
                ));
            }
        }
        out
    }
}

impl VerifyHooks for Verifier {
    fn on_start(&self, size: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.size = size;
        inner.blocked.clear();
        inner.candidate = None;
        inner.collectives.clear();
        inner.final_seqs = vec![None; size];
        inner.final_seq_checked = false;
    }

    fn on_collective(&self, rank: usize, seq: u64, fp: CollFingerprint<'_>) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        let size = inner.size;
        let rec = match inner.collectives.get_mut(&seq) {
            None => {
                inner.collectives.insert(
                    seq,
                    CollRecord {
                        kind: fp.kind,
                        elem_type: fp.elem_type(),
                        len: fp.len,
                        context: fp.context.to_owned(),
                        first_rank: rank,
                        arrived: 1,
                    },
                );
                return Ok(());
            }
            Some(rec) => rec,
        };
        // Within one kind `len` is either always or never `Some`.
        if rec.kind != fp.kind || rec.elem_type != fp.elem_type() || rec.len != fp.len {
            let diag = format!(
                "cmt-verify: COLLECTIVE MISMATCH at collective #{seq}: rank {rank} called {} at call site {:?}, but rank {} called {} at call site {:?}",
                describe(fp.kind, fp.elem_type(), fp.len),
                fp.context,
                rec.first_rank,
                describe(rec.kind, rec.elem_type, rec.len),
                rec.context,
            );
            Self::push_finding(
                &mut inner,
                FindingKind::CollectiveMismatch,
                rank,
                diag.clone(),
            );
            return Err(diag);
        }
        rec.arrived += 1;
        if rec.arrived == size {
            inner.collectives.remove(&seq);
        }
        Ok(())
    }

    fn on_block(&self, rank: usize, src: usize, tag: Tag, context: &str) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let id = inner.next_block_id;
        inner.next_block_id += 1;
        inner.blocked.insert(
            rank,
            Blocked {
                id,
                src,
                tag,
                context: context.to_owned(),
            },
        );
        id
    }

    fn on_block_poll(&self, rank: usize, _block_id: u64) -> Option<String> {
        let mut inner = self.inner.lock().unwrap();
        if inner.deadlock_reported {
            // First observer already reported; this rank will abort via
            // the world's poison flag on its next poll.
            return None;
        }
        let cycle = Self::find_cycle(&inner, rank)?;
        match &inner.candidate {
            Some((c, first_seen)) if *c == cycle => {
                if first_seen.elapsed() < self.grace {
                    return None;
                }
                // The same blocked episodes closed the same cycle across
                // the whole grace window: every awaited message's sender
                // is itself in the cycle, so no progress is possible.
                let diag = Self::deadlock_dump(&inner, &cycle, rank);
                inner.deadlock_reported = true;
                Self::push_finding(&mut inner, FindingKind::Deadlock, rank, diag.clone());
                Some(diag)
            }
            _ => {
                inner.candidate = Some((cycle, Instant::now()));
                None
            }
        }
    }

    fn on_unblock(&self, rank: usize, block_id: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.blocked.get(&rank).is_some_and(|b| b.id == block_id) {
            inner.blocked.remove(&rank);
        }
    }

    fn on_finalize(&self, rank: usize, coll_seq: u64, leaked: &[LeakInfo]) {
        let mut inner = self.inner.lock().unwrap();
        for l in leaked {
            let sent_at = match &l.sender_context {
                Some(c) => format!(" sent at call site {c:?}"),
                None => String::new(),
            };
            Self::push_finding(
                &mut inner,
                FindingKind::MessageLeak,
                rank,
                format!(
                    "cmt-verify: MESSAGE LEAK — rank {rank} finalized with an unreceived message from rank {} ({}, {} bytes{sent_at})",
                    l.src,
                    fmt_tag(l.tag),
                    l.bytes
                ),
            );
        }
        inner.final_seqs[rank] = Some(coll_seq);
        if !inner.final_seq_checked && inner.final_seqs.iter().all(Option::is_some) {
            inner.final_seq_checked = true;
            let seqs: Vec<u64> = inner.final_seqs.iter().map(|s| s.unwrap()).collect();
            if seqs.iter().any(|&s| s != seqs[0]) {
                let listing = seqs
                    .iter()
                    .enumerate()
                    .map(|(r, s)| format!("rank {r}: {s}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                Self::push_finding(
                    &mut inner,
                    FindingKind::CollectiveMismatch,
                    rank,
                    format!(
                        "cmt-verify: COLLECTIVE MISMATCH — ranks finalized with different collective counts ({listing}): some rank skipped or added a collective"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_rendering_decodes_collective_tags() {
        assert_eq!(fmt_tag(0x5), "tag 0x5");
        let t = USER_TAG_LIMIT | (7 << 12) | 3;
        assert!(fmt_tag(t).contains("collective #7 round 3"));
    }

    #[test]
    fn render_reports_clean_when_empty() {
        let v = Verifier::new();
        assert!(v.is_clean());
        assert!(v.render().contains("clean"));
    }
}
