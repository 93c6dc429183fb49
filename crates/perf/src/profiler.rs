//! A gprof-style hierarchical region profiler.
//!
//! The paper's Fig. 4 is a partial call graph + execution profile of
//! CMT-bone obtained with gprof, showing the derivative (`ax_`-like)
//! kernel dominating. This profiler produces the same two artifacts from
//! explicitly instrumented regions: a *flat profile* (per-region self
//! time, % of total, call counts) and a *partial call graph* (parent →
//! child edges with inclusive times).
//!
//! Regions nest: `enter("step")`, `enter("deriv")`, `exit()`, `exit()`.
//! Self time of a region excludes time spent in its instrumented
//! children; inclusive time includes it.
//!
//! When the crate is built with the `count-alloc` feature, every region
//! also accumulates heap-allocation counts and bytes (from
//! [`crate::alloc::thread_counts`]), attributed to regions exactly like
//! wall time: a region's *self* allocations exclude those made inside
//! instrumented children. Without the feature the counters stay zero.

use std::collections::HashMap;
use std::time::Instant;

use crate::alloc::thread_counts;

/// Accumulated statistics of one region name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// Number of times the region was entered.
    pub calls: u64,
    /// Inclusive wall time, seconds.
    pub inclusive_s: f64,
    /// Time spent in instrumented child regions, seconds.
    pub child_s: f64,
    /// Inclusive heap allocations (needs the `count-alloc` feature).
    pub allocs: u64,
    /// Heap allocations made in instrumented child regions.
    pub child_allocs: u64,
    /// Inclusive heap bytes allocated (needs the `count-alloc` feature).
    pub alloc_bytes: u64,
    /// Heap bytes allocated in instrumented child regions.
    pub child_alloc_bytes: u64,
}

impl RegionStats {
    /// Self (exclusive) time, seconds.
    pub fn self_s(&self) -> f64 {
        (self.inclusive_s - self.child_s).max(0.0)
    }

    /// Self (exclusive) heap allocations.
    pub fn self_allocs(&self) -> u64 {
        self.allocs.saturating_sub(self.child_allocs)
    }

    /// Self (exclusive) heap bytes allocated.
    pub fn self_alloc_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.child_alloc_bytes)
    }
}

struct Frame {
    name: String,
    start: Instant,
    child_s: f64,
    alloc_start: u64,
    bytes_start: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// The profiler. Not thread-safe by design: each rank owns one (gprof is
/// per-process too); cross-rank aggregation happens at reporting time.
///
/// The hot path is allocation-free at steady state, so the profiler's own
/// bookkeeping never pollutes the per-region allocation counters: frame
/// names recycle through a spare-string pool, and the region/edge maps
/// use borrowed-`&str` lookups, cloning keys only the first time a name
/// appears (the same idiom as `simmpi`'s `CommRecorder`).
#[derive(Default)]
pub struct Profiler {
    regions: HashMap<String, RegionStats>,
    /// parent -> child -> (calls, inclusive_s), two-level so the steady
    /// state needs no owned key to look an edge up.
    edges: HashMap<String, HashMap<String, (u64, f64)>>,
    stack: Vec<Frame>,
    /// Retired frame-name strings, reused by the next `enter`.
    spares: Vec<String>,
}

impl Profiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter a region.
    pub fn enter(&mut self, name: &str) {
        // Build the owned name from a recycled spare and pre-reserve the
        // stack before snapshotting the counters: after a few calls every
        // piece has its capacity and the enter itself allocates nothing.
        let mut owned = self.spares.pop().unwrap_or_default();
        owned.clear();
        owned.push_str(name);
        self.stack.reserve(1);
        let (alloc_start, bytes_start) = thread_counts();
        self.stack.push(Frame {
            name: owned,
            start: Instant::now(),
            child_s: 0.0,
            alloc_start,
            bytes_start,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    /// Exit the innermost open region.
    ///
    /// # Panics
    /// Panics if no region is open.
    pub fn exit(&mut self) {
        // Snapshot first: anything the bookkeeping below might allocate
        // (first-appearance key clones) must not be charged to the region.
        let (alloc_now, bytes_now) = thread_counts();
        let frame = self.stack.pop().expect("Profiler::exit without enter");
        let elapsed = frame.start.elapsed().as_secs_f64();
        let allocs = alloc_now - frame.alloc_start;
        let bytes = bytes_now - frame.bytes_start;
        if !self.regions.contains_key(frame.name.as_str()) {
            self.regions
                .insert(frame.name.clone(), RegionStats::default());
        }
        let stats = self.regions.get_mut(frame.name.as_str()).expect("present");
        stats.calls += 1;
        stats.inclusive_s += elapsed;
        stats.child_s += frame.child_s;
        stats.allocs += allocs;
        stats.child_allocs += frame.child_allocs;
        stats.alloc_bytes += bytes;
        stats.child_alloc_bytes += frame.child_bytes;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += elapsed;
            parent.child_allocs += allocs;
            parent.child_bytes += bytes;
            if !self.edges.contains_key(parent.name.as_str()) {
                self.edges.insert(parent.name.clone(), HashMap::new());
            }
            let by_child = self.edges.get_mut(parent.name.as_str()).expect("present");
            if !by_child.contains_key(frame.name.as_str()) {
                by_child.insert(frame.name.clone(), (0, 0.0));
            }
            let edge = by_child.get_mut(frame.name.as_str()).expect("present");
            edge.0 += 1;
            edge.1 += elapsed;
        }
        self.spares.push(frame.name);
    }

    /// Run `f` inside a region (convenience wrapper around enter/exit).
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Freeze into a report.
    ///
    /// # Panics
    /// Panics if regions are still open (unbalanced enter/exit).
    pub fn report(&self) -> ProfileReport {
        assert!(
            self.stack.is_empty(),
            "profiler report with {} regions still open",
            self.stack.len()
        );
        let mut flat: Vec<(String, RegionStats)> = self
            .regions
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        flat.sort_by(|a, b| b.1.self_s().total_cmp(&a.1.self_s()));
        let mut edges: Vec<(String, String, u64, f64)> = self
            .edges
            .iter()
            .flat_map(|(p, by_child)| {
                by_child
                    .iter()
                    .map(move |(c, &(n, t))| (p.clone(), c.clone(), n, t))
            })
            .collect();
        edges.sort_by(|a, b| b.3.total_cmp(&a.3));
        ProfileReport { flat, edges }
    }

    /// Merge another profiler's totals into this one (for cross-rank
    /// aggregation; both must be fully exited).
    pub fn merge(&mut self, other: &Profiler) {
        assert!(self.stack.is_empty() && other.stack.is_empty());
        for (name, st) in &other.regions {
            let mine = self.regions.entry(name.clone()).or_default();
            mine.calls += st.calls;
            mine.inclusive_s += st.inclusive_s;
            mine.child_s += st.child_s;
            mine.allocs += st.allocs;
            mine.child_allocs += st.child_allocs;
            mine.alloc_bytes += st.alloc_bytes;
            mine.child_alloc_bytes += st.child_alloc_bytes;
        }
        for (parent, by_child) in &other.edges {
            let mine = self.edges.entry(parent.clone()).or_default();
            for (child, &(n, t)) in by_child {
                let e = mine.entry(child.clone()).or_insert((0, 0.0));
                e.0 += n;
                e.1 += t;
            }
        }
    }
}

/// A frozen profile: flat rows (sorted by self time, descending) and call
/// edges (sorted by inclusive time).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// `(region, stats)` sorted by self time descending.
    pub flat: Vec<(String, RegionStats)>,
    /// `(parent, child, calls, inclusive seconds)` sorted by time.
    pub edges: Vec<(String, String, u64, f64)>,
}

impl ProfileReport {
    /// Total self time over all regions (the flat profile denominator).
    pub fn total_self_s(&self) -> f64 {
        self.flat.iter().map(|(_, s)| s.self_s()).sum()
    }

    /// Self-time share of one region in `[0, 1]`; 0 for unknown regions.
    pub fn share(&self, name: &str) -> f64 {
        let total = self.total_self_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.flat
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.self_s() / total)
            .unwrap_or(0.0)
    }

    /// Render a gprof-like flat profile. When any region saw heap
    /// allocations (the `count-alloc` build), two extra columns report
    /// self allocations and self bytes per region.
    pub fn render_flat(&self) -> String {
        let total = self.total_self_s().max(1e-300);
        let with_allocs = self.flat.iter().any(|(_, s)| s.allocs > 0);
        let mut out = if with_allocs {
            String::from("  %time     self(s)    calls      allocs       bytes  name\n")
        } else {
            String::from("  %time     self(s)    calls  name\n")
        };
        for (name, s) in &self.flat {
            if with_allocs {
                out.push_str(&format!(
                    "{:7.2} {:11.4} {:8} {:11} {:11}  {}\n",
                    100.0 * s.self_s() / total,
                    s.self_s(),
                    s.calls,
                    s.self_allocs(),
                    s.self_alloc_bytes(),
                    name
                ));
            } else {
                out.push_str(&format!(
                    "{:7.2} {:11.4} {:8}  {}\n",
                    100.0 * s.self_s() / total,
                    s.self_s(),
                    s.calls,
                    name
                ));
            }
        }
        out
    }

    /// Render the partial call graph (parent -> child edges).
    pub fn render_call_graph(&self) -> String {
        let mut out = String::from("  parent -> child                         calls   incl(s)\n");
        for (p, c, n, t) in &self.edges {
            out.push_str(&format!(
                "  {:38} {:7} {:9.4}\n",
                format!("{p} -> {c}"),
                n,
                t
            ));
        }
        out
    }
}

/// Wire-format codec so socket-backend mini-app ranks can ship their
/// profiles back to the launcher for the cross-rank merge. Only fully
/// exited profilers travel (the stack and the spare-string pool are
/// transient bookkeeping and are not encoded); entries are sorted by name
/// so the encoding is byte-stable across `HashMap` iteration orders.
impl simmpi::WireCodec for Profiler {
    fn encode(&self, buf: &mut Vec<u8>) {
        assert!(
            self.stack.is_empty(),
            "cannot serialize a profiler with open regions"
        );
        let mut regions: Vec<(&String, &RegionStats)> = self.regions.iter().collect();
        regions.sort_by_key(|(name, _)| name.as_str());
        (regions.len()).encode(buf);
        for (name, s) in regions {
            name.encode(buf);
            s.calls.encode(buf);
            s.inclusive_s.encode(buf);
            s.child_s.encode(buf);
            s.allocs.encode(buf);
            s.child_allocs.encode(buf);
            s.alloc_bytes.encode(buf);
            s.child_alloc_bytes.encode(buf);
        }
        let mut edges: Vec<(&String, &String, u64, f64)> = self
            .edges
            .iter()
            .flat_map(|(p, by_child)| by_child.iter().map(move |(c, &(n, t))| (p, c, n, t)))
            .collect();
        edges.sort_by_key(|(p, c, _, _)| (p.as_str(), c.as_str()));
        edges.len().encode(buf);
        for (p, c, n, t) in edges {
            p.encode(buf);
            c.encode(buf);
            n.encode(buf);
            t.encode(buf);
        }
    }

    fn decode(r: &mut simmpi::WireReader<'_>) -> Result<Self, simmpi::WireError> {
        let mut prof = Profiler::new();
        let nregions = r.count(9)?;
        for _ in 0..nregions {
            let name = String::decode(r)?;
            let stats = RegionStats {
                calls: r.u64()?,
                inclusive_s: r.f64()?,
                child_s: r.f64()?,
                allocs: r.u64()?,
                child_allocs: r.u64()?,
                alloc_bytes: r.u64()?,
                child_alloc_bytes: r.u64()?,
            };
            prof.regions.insert(name, stats);
        }
        let nedges = r.count(18)?;
        for _ in 0..nedges {
            let parent = String::decode(r)?;
            let child = String::decode(r)?;
            let calls = r.u64()?;
            let time = r.f64()?;
            prof.edges
                .entry(parent)
                .or_default()
                .insert(child, (calls, time));
        }
        Ok(prof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = Profiler::new();
        p.enter("outer");
        spin(Duration::from_millis(20));
        p.enter("inner");
        spin(Duration::from_millis(30));
        p.exit();
        p.exit();
        let r = p.report();
        let outer = &r.flat.iter().find(|(n, _)| n == "outer").unwrap().1;
        let inner = &r.flat.iter().find(|(n, _)| n == "inner").unwrap().1;
        assert!(
            outer.inclusive_s >= 0.049,
            "outer incl {}",
            outer.inclusive_s
        );
        assert!(outer.self_s() < 0.03, "outer self {}", outer.self_s());
        assert!(inner.self_s() >= 0.029, "inner self {}", inner.self_s());
        // inner is the hotter self-time region, so it sorts first
        assert_eq!(r.flat[0].0, "inner");
    }

    #[test]
    fn calls_counted_and_edges_recorded() {
        let mut p = Profiler::new();
        for _ in 0..5 {
            p.enter("step");
            p.enter("deriv");
            p.exit();
            p.enter("deriv");
            p.exit();
            p.exit();
        }
        let r = p.report();
        let deriv = &r.flat.iter().find(|(n, _)| n == "deriv").unwrap().1;
        assert_eq!(deriv.calls, 10);
        let edge = r
            .edges
            .iter()
            .find(|(pa, ch, _, _)| pa == "step" && ch == "deriv")
            .unwrap();
        assert_eq!(edge.2, 10);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut p = Profiler::new();
        p.scope("a", || spin(Duration::from_millis(5)));
        p.scope("b", || spin(Duration::from_millis(10)));
        let r = p.report();
        let sum = r.share("a") + r.share("b");
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(r.share("b") > r.share("a"));
        assert_eq!(r.share("nonexistent"), 0.0);
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = Profiler::new();
        a.scope("x", || spin(Duration::from_millis(2)));
        let mut b = Profiler::new();
        b.scope("x", || spin(Duration::from_millis(2)));
        b.scope("y", || {});
        a.merge(&b);
        let r = a.report();
        let x = &r.flat.iter().find(|(n, _)| n == "x").unwrap().1;
        assert_eq!(x.calls, 2);
        assert!(r.flat.iter().any(|(n, _)| n == "y"));
    }

    #[test]
    fn render_contains_rows() {
        let mut p = Profiler::new();
        p.scope("kernel", || spin(Duration::from_millis(1)));
        let r = p.report();
        assert!(r.render_flat().contains("kernel"));
    }

    #[test]
    fn wire_roundtrip_preserves_regions_and_edges() {
        use simmpi::WireCodec;
        let mut p = Profiler::new();
        for _ in 0..3 {
            p.enter("step");
            p.enter("deriv");
            p.exit();
            p.exit();
        }
        p.scope("quiet", || {});
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut r = simmpi::WireReader::new(&buf);
        let back = Profiler::decode(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "trailing bytes");
        let by_name = |rep: &ProfileReport| {
            let mut flat = rep.flat.clone();
            flat.sort_by(|a, b| a.0.cmp(&b.0));
            let mut edges = rep.edges.clone();
            edges.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            (flat, edges)
        };
        let (af, ae) = by_name(&p.report());
        let (bf, be) = by_name(&back.report());
        assert_eq!(af, bf);
        assert_eq!(ae, be);
        // the restored profiler merges like a live one
        let mut merged = Profiler::new();
        merged.merge(&back);
        assert_eq!(by_name(&merged.report()).0, af);
    }

    #[test]
    #[should_panic]
    fn wire_encode_with_open_region_panics() {
        use simmpi::WireCodec;
        let mut p = Profiler::new();
        p.enter("open");
        p.encode(&mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn report_with_open_region_panics() {
        let mut p = Profiler::new();
        p.enter("open");
        let _ = p.report();
    }

    #[test]
    #[should_panic]
    fn exit_without_enter_panics() {
        let mut p = Profiler::new();
        p.exit();
    }

    #[test]
    fn self_allocs_subtract_children() {
        let s = RegionStats {
            calls: 1,
            allocs: 10,
            child_allocs: 7,
            alloc_bytes: 4096,
            child_alloc_bytes: 1024,
            ..Default::default()
        };
        assert_eq!(s.self_allocs(), 3);
        assert_eq!(s.self_alloc_bytes(), 3072);
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn allocations_attributed_to_regions() {
        let mut p = Profiler::new();
        p.enter("outer");
        let a: Vec<u8> = Vec::with_capacity(100);
        p.enter("inner");
        let b: Vec<u8> = Vec::with_capacity(5000);
        p.exit();
        p.exit();
        p.scope("quiet", || {});
        drop((a, b));
        let r = p.report();
        let find = |n: &str| r.flat.iter().find(|(m, _)| m == n).unwrap().1.clone();
        let outer = find("outer");
        let inner = find("inner");
        let quiet = find("quiet");
        assert!(inner.self_allocs() >= 1);
        assert!(inner.self_alloc_bytes() >= 5000);
        assert!(outer.self_allocs() >= 1);
        assert!(
            outer.self_alloc_bytes() < 5000,
            "inner's 5000-byte vec must not count as outer self ({})",
            outer.self_alloc_bytes()
        );
        assert!(outer.allocs >= inner.allocs, "inclusive includes children");
        assert_eq!(quiet.allocs, 0, "an allocation-free region reports 0");
        assert!(r.render_flat().contains("allocs"));
    }
}
