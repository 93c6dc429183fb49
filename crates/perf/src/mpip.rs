//! mpiP-style cross-rank aggregation of communication statistics.
//!
//! Consumes the per-rank [`simmpi::CommStats`] of a world run and produces
//! the three views of the paper's Figs. 8-10:
//!
//! * per-rank percentage of execution time spent in MPI (Fig. 8);
//! * the top-k most expensive call sites, aggregated across ranks, with
//!   their share of app time and of total MPI time (Fig. 9);
//! * total and average message sizes per call site (Fig. 10).
//!
//! All three views come with plain-text renderers (bar charts / tables)
//! styled after the paper's plots.

use std::collections::HashMap;

use simmpi::{CommStats, MpiOp, SiteKey};

/// One call site aggregated across all ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteAggregate {
    /// The site (operation + application context).
    pub site: SiteKey,
    /// Total calls across ranks.
    pub calls: u64,
    /// Total time across ranks, seconds.
    pub time_s: f64,
    /// Total bytes across ranks.
    pub bytes: u64,
    /// Largest single-call byte count seen on any rank.
    pub max_bytes: u64,
}

impl SiteAggregate {
    /// Average message size per call, bytes (0 when no calls).
    pub fn avg_bytes(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.bytes as f64 / self.calls as f64
        }
    }

    /// `"MPI_Wait@gs:pairwise"`-style display name.
    pub fn name(&self) -> String {
        format!("{}@{}", self.site.op.mpi_name(), self.site.context)
    }
}

/// The aggregated cross-rank communication report.
#[derive(Debug, Clone)]
pub struct MpipReport {
    /// Per-rank total app time, seconds.
    pub app_time_per_rank: Vec<f64>,
    /// Per-rank total MPI time, seconds.
    pub mpi_time_per_rank: Vec<f64>,
    /// Aggregated call sites, sorted by total time descending.
    pub sites: Vec<SiteAggregate>,
}

impl MpipReport {
    /// Aggregate a world run's per-rank statistics.
    pub fn from_stats(stats: &[CommStats]) -> MpipReport {
        let mut sites: HashMap<SiteKey, SiteAggregate> = HashMap::new();
        let mut app = Vec::with_capacity(stats.len());
        let mut mpi = Vec::with_capacity(stats.len());
        for st in stats {
            app.push(st.app_time_s);
            mpi.push(st.mpi_time_s());
            for (key, s) in &st.sites {
                let agg = sites.entry(key.clone()).or_insert_with(|| SiteAggregate {
                    site: key.clone(),
                    calls: 0,
                    time_s: 0.0,
                    bytes: 0,
                    max_bytes: 0,
                });
                agg.calls += s.calls;
                agg.time_s += s.time_s;
                agg.bytes += s.bytes;
                agg.max_bytes = agg.max_bytes.max(s.max_bytes);
            }
        }
        let mut sites: Vec<SiteAggregate> = sites.into_values().collect();
        sites.sort_by(|a, b| b.time_s.total_cmp(&a.time_s).then(a.site.cmp(&b.site)));
        MpipReport {
            app_time_per_rank: app,
            mpi_time_per_rank: mpi,
            sites,
        }
    }

    /// Fig. 8 quantity: per-rank `% of execution time in MPI`.
    pub fn mpi_percent_per_rank(&self) -> Vec<f64> {
        self.app_time_per_rank
            .iter()
            .zip(&self.mpi_time_per_rank)
            .map(|(&a, &m)| if a > 0.0 { 100.0 * m / a } else { 0.0 })
            .collect()
    }

    /// Total app time summed over ranks.
    pub fn total_app_s(&self) -> f64 {
        self.app_time_per_rank.iter().sum()
    }

    /// Total MPI time summed over ranks.
    pub fn total_mpi_s(&self) -> f64 {
        self.mpi_time_per_rank.iter().sum()
    }

    /// Fig. 9 rows: the `k` most expensive call sites with their share of
    /// total app time and of total MPI time, in percent.
    pub fn top_sites(&self, k: usize) -> Vec<(SiteAggregate, f64, f64)> {
        let app = self.total_app_s().max(1e-300);
        let mpi = self.total_mpi_s().max(1e-300);
        self.sites
            .iter()
            .take(k)
            .map(|s| (s.clone(), 100.0 * s.time_s / app, 100.0 * s.time_s / mpi))
            .collect()
    }

    /// Total time attributed to one operation kind across all sites.
    pub fn time_of_op(&self, op: MpiOp) -> f64 {
        self.sites
            .iter()
            .filter(|s| s.site.op == op)
            .map(|s| s.time_s)
            .sum()
    }

    /// Fig. 8 rendering: one bar per rank of `% time in MPI`.
    pub fn render_rank_bars(&self) -> String {
        let pct = self.mpi_percent_per_rank();
        let mut out = String::from("% time spent in MPI calls per rank\n");
        for (r, p) in pct.iter().enumerate() {
            let bar = "#".repeat((p / 2.0).round().min(50.0) as usize);
            out.push_str(&format!("rank {r:4} |{bar:<50}| {p:6.2}%\n"));
        }
        out
    }

    /// Fig. 9 rendering: top-k call sites table.
    pub fn render_top_sites(&self, k: usize) -> String {
        let mut out = String::from(
            "call site                                   time(s)   %app   %mpi      calls\n",
        );
        for (s, pa, pm) in self.top_sites(k) {
            out.push_str(&format!(
                "{:42} {:9.4} {:6.2} {:6.2} {:10}\n",
                s.name(),
                s.time_s,
                pa,
                pm,
                s.calls
            ));
        }
        out
    }

    /// Fig. 10 rendering: per-call-site total and average message sizes,
    /// for the `k` sites with the most traffic.
    pub fn render_msg_sizes(&self, k: usize) -> String {
        let mut by_bytes: Vec<&SiteAggregate> = self.sites.iter().filter(|s| s.bytes > 0).collect();
        // Ties break on the site, so equal-byte rows (and the top-k cut)
        // do not follow the measured-time order of `sites`.
        by_bytes.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        let mut out = String::from(
            "call site                                total bytes   avg bytes/call   max bytes\n",
        );
        for s in by_bytes.into_iter().take(k) {
            out.push_str(&format!(
                "{:42} {:11} {:14.1} {:11}\n",
                s.name(),
                s.bytes,
                s.avg_bytes(),
                s.max_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::World;

    fn sample_stats() -> Vec<CommStats> {
        // Drive a tiny world to get real CommStats.
        let res = World::new().run(4, |rank| {
            rank.set_context("halo");
            let next = (rank.rank() + 1) % rank.size();
            let prev = (rank.rank() + rank.size() - 1) % rank.size();
            let req = rank.irecv(prev, 1);
            rank.isend(next, 1, &[1.0f64; 64]);
            let _ = rank.wait_recv::<f64>(req);
            rank.set_context("dots");
            let _ = rank.allreduce_scalar(1.0, simmpi::ReduceOp::Sum);
        });
        res.stats
    }

    #[test]
    fn aggregation_sums_ranks() {
        let stats = sample_stats();
        let rep = MpipReport::from_stats(&stats);
        assert_eq!(rep.app_time_per_rank.len(), 4);
        let isend = rep
            .sites
            .iter()
            .find(|s| s.site.op == MpiOp::Isend && s.site.context == "halo")
            .expect("isend site");
        assert_eq!(isend.calls, 4);
        assert_eq!(isend.bytes, 4 * 64 * 8);
        assert_eq!(isend.max_bytes, 512);
        let ar = rep
            .sites
            .iter()
            .find(|s| s.site.op == MpiOp::Allreduce)
            .expect("allreduce site");
        assert_eq!(ar.calls, 4);
    }

    #[test]
    fn percentages_bounded() {
        let rep = MpipReport::from_stats(&sample_stats());
        for p in rep.mpi_percent_per_rank() {
            assert!((0.0..=100.0 + 1e-6).contains(&p), "pct {p}");
        }
        let top = rep.top_sites(3);
        assert!(top.len() <= 3);
        let total_mpi_share: f64 = rep.top_sites(100).iter().map(|(_, _, pm)| pm).sum();
        assert!((total_mpi_share - 100.0).abs() < 1e-6, "{total_mpi_share}");
    }

    #[test]
    fn sites_sorted_by_time() {
        let rep = MpipReport::from_stats(&sample_stats());
        for w in rep.sites.windows(2) {
            assert!(w[0].time_s >= w[1].time_s);
        }
    }

    #[test]
    fn renders_contain_expected_rows() {
        let rep = MpipReport::from_stats(&sample_stats());
        assert!(rep.render_rank_bars().contains("rank    0"));
        assert!(rep.render_top_sites(10).contains("MPI_"));
        assert!(rep.render_msg_sizes(10).contains("@halo"));
    }

    #[test]
    fn msg_sizes_order_is_independent_of_time_order() {
        let site = |context: &str, time_s: f64| SiteAggregate {
            site: SiteKey {
                op: MpiOp::Allreduce,
                context: context.into(),
            },
            calls: 1,
            time_s,
            bytes: 32,
            max_bytes: 32,
        };
        let report = |sites| MpipReport {
            app_time_per_rank: vec![1.0],
            mpi_time_per_rank: vec![0.5],
            sites,
        };
        let a_first = report(vec![site("a", 0.2), site("b", 0.1)]);
        let b_first = report(vec![site("b", 0.2), site("a", 0.1)]);
        for k in [1, 2] {
            assert_eq!(
                a_first.render_msg_sizes(k),
                b_first.render_msg_sizes(k),
                "k={k}"
            );
        }
        assert!(b_first.render_msg_sizes(1).contains("@a"));
    }

    #[test]
    fn avg_bytes_handles_zero_calls() {
        let agg = SiteAggregate {
            site: SiteKey {
                op: MpiOp::Send,
                context: "x".into(),
            },
            calls: 0,
            time_s: 0.0,
            bytes: 0,
            max_bytes: 0,
        };
        assert_eq!(agg.avg_bytes(), 0.0);
    }
}
