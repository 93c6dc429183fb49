//! # cmt-mesh
//!
//! Cartesian spectral-element domain decomposition for the CMT-bone and
//! Nekbone mini-apps.
//!
//! The paper's Fig. 7 setup block is the specification this crate
//! implements:
//!
//! ```text
//! Number of processors: 256            Dimensions = 3
//! Number of elements per process = 100 Processor Distribution (x,y,z) = 8, 8, 4
//! Total elements = 25600               Element Distribution (x,y,z) = 40, 40, 16
//! Gridpoints per element = 10          Local Element Distribution (x,y,z) = 5, 5, 4
//! ```
//!
//! A [`MeshConfig`] describes the processor grid, the per-rank local
//! element block, and the element order `n`; [`RankMesh`] is one rank's
//! view: local-to-global element maps, per-face neighbor lookup
//! ([`Neighbor`]), and the two global GLL numbering modes the mini-apps
//! need:
//!
//! * [`RankMesh::volume_point_gids`] — the *continuous* (vertex-conforming)
//!   numbering over all `n^3` points per element, in which every point
//!   shared by adjacent elements carries the same global id. This is what
//!   Nekbone's `dssum` gathers over (points on faces/edges/corners are
//!   shared by up to 8 elements).
//! * [`RankMesh::face_point_gids`] — the same numbering restricted to the
//!   `6 n^2` face points per element in [`cmt_core::face`] ordering, which
//!   is what CMT-bone's DG surface exchange gathers over.
//!
//! Both numberings are what the gather-scatter library's discovery phase
//! (`gs_setup`) consumes — "each processor is given index sets containing
//! the global ids of the elements", as the paper puts it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cmt_core::face::{face_point_volume_index, Face};

mod partition;

pub use partition::ElemPartition;

/// Factor `v` into three factors as close to `v^(1/3)` as possible,
/// largest factor first in x (matching the paper's 256 -> 8 x 8 x 4 and
/// 100 -> 5 x 5 x 4 splits).
pub fn balanced_factor3(v: usize) -> [usize; 3] {
    assert!(v > 0, "cannot factor zero");
    let mut best = [v, 1, 1];
    let mut best_cost = usize::MAX;
    // enumerate a <= b <= c with a*b*c = v, minimize surface-ish cost
    let mut a = 1;
    while a * a * a <= v {
        if v % a == 0 {
            let rest = v / a;
            let mut b = a;
            while b * b <= rest {
                if rest % b == 0 {
                    let c = rest / b;
                    // minimize c - a (spread), i.e. prefer the most cubic split
                    let cost = c - a;
                    if cost < best_cost {
                        best_cost = cost;
                        best = [c, b, a]; // larger factors toward x, like 8,8,4
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Whether an element face's neighbor is on this rank, another rank, or a
/// (non-periodic) domain boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Neighbor {
    /// Neighbor element lives on the same rank; payload is its local index.
    Local(usize),
    /// Neighbor element lives on another rank.
    Remote {
        /// Owning rank.
        rank: usize,
        /// Local element index on the owning rank.
        elem: usize,
    },
    /// No neighbor: the face lies on a non-periodic domain boundary.
    Boundary,
}

/// Global mesh/partition description, shared by all ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshConfig {
    /// GLL points per direction per element (the paper's `N`).
    pub n: usize,
    /// Processor grid dimensions `(px, py, pz)`.
    pub proc_dims: [usize; 3],
    /// Per-rank local element block `(lx, ly, lz)`.
    pub local_elems: [usize; 3],
    /// Periodic domain (true for the mini-app's interior-physics proxy).
    pub periodic: bool,
}

impl MeshConfig {
    /// Build the canonical configuration from a rank count and an
    /// elements-per-rank budget, factoring both as the mini-app's setup
    /// phase does (256 ranks, 100 elem/rank, n = 10 reproduces the
    /// paper's Fig. 7 block exactly).
    pub fn for_ranks(ranks: usize, elems_per_rank: usize, n: usize, periodic: bool) -> Self {
        MeshConfig {
            n,
            proc_dims: balanced_factor3(ranks),
            local_elems: balanced_factor3(elems_per_rank),
            periodic,
        }
    }

    /// Total rank count `px * py * pz`.
    pub fn ranks(&self) -> usize {
        self.proc_dims.iter().product()
    }

    /// Global element grid `(ex, ey, ez) = proc_dims * local_elems`.
    pub fn global_elems(&self) -> [usize; 3] {
        [
            self.proc_dims[0] * self.local_elems[0],
            self.proc_dims[1] * self.local_elems[1],
            self.proc_dims[2] * self.local_elems[2],
        ]
    }

    /// Elements per rank.
    pub fn elems_per_rank(&self) -> usize {
        self.local_elems.iter().product()
    }

    /// Total elements in the domain.
    pub fn total_elems(&self) -> usize {
        self.ranks() * self.elems_per_rank()
    }

    /// Global coordinates of the element with flattened id `gid`
    /// (x fastest — the inverse of [`MeshConfig::elem_id`]).
    pub fn elem_coords(&self, gid: usize) -> [usize; 3] {
        let ge = self.global_elems();
        debug_assert!(gid < self.total_elems());
        [gid % ge[0], (gid / ge[0]) % ge[1], gid / (ge[0] * ge[1])]
    }

    /// Flattened global element id of the element at global coordinates.
    pub fn elem_id(&self, gc: [usize; 3]) -> usize {
        let ge = self.global_elems();
        (gc[2] * ge[1] + gc[1]) * ge[0] + gc[0]
    }

    /// Owner rank of global element `gid` under the *initial* Cartesian
    /// partition (each rank owns its `local_elems` block). Dynamic
    /// repartitions are described by [`ElemPartition`] instead.
    pub fn cartesian_owner(&self, gid: usize) -> usize {
        let gc = self.elem_coords(gid);
        let [lx, ly, lz] = self.local_elems;
        let [px, py, _pz] = self.proc_dims;
        let pc = [gc[0] / lx, gc[1] / ly, gc[2] / lz];
        (pc[2] * py + pc[1]) * px + pc[0]
    }

    /// Global GLL point-grid dimensions of the continuous numbering.
    ///
    /// Adjacent elements share their interface plane, so direction `d`
    /// has `ex_d * (n-1) + 1` distinct planes non-periodically, and
    /// `ex_d * (n-1)` when the two domain ends are identified.
    pub fn global_point_dims(&self) -> [usize; 3] {
        let ge = self.global_elems();
        let mut out = [0; 3];
        for d in 0..3 {
            out[d] = if self.periodic {
                ge[d] * (self.n - 1)
            } else {
                ge[d] * (self.n - 1) + 1
            };
        }
        out
    }

    /// Total distinct global GLL points.
    pub fn total_points(&self) -> usize {
        self.global_point_dims().iter().product()
    }

    /// The paper-style setup block (Fig. 7 header) as displayable text.
    pub fn summary(&self) -> String {
        let ge = self.global_elems();
        format!(
            "Number of processors: {}            Dimensions = 3\n\
             Number of elements per process = {}  Processor Distribution (x,y,z) = {}, {}, {}\n\
             Total elements = {}                  Element Distribution (x,y,z) = {}, {}, {}\n\
             Number of gridpoints per element = {} Local Element Distribution (x,y,z) = {}, {}, {}",
            self.ranks(),
            self.elems_per_rank(),
            self.proc_dims[0],
            self.proc_dims[1],
            self.proc_dims[2],
            self.total_elems(),
            ge[0],
            ge[1],
            ge[2],
            self.n,
            self.local_elems[0],
            self.local_elems[1],
            self.local_elems[2],
        )
    }
}

/// One rank's view of the partitioned mesh.
#[derive(Debug, Clone)]
pub struct RankMesh {
    cfg: MeshConfig,
    rank: usize,
    proc_coords: [usize; 3],
}

impl RankMesh {
    /// Build rank `rank`'s view.
    ///
    /// # Panics
    /// Panics if `rank >= cfg.ranks()`.
    pub fn new(cfg: MeshConfig, rank: usize) -> Self {
        assert!(rank < cfg.ranks(), "rank {rank} out of {}", cfg.ranks());
        let [px, py, _pz] = cfg.proc_dims;
        let proc_coords = [rank % px, (rank / px) % py, rank / (px * py)];
        RankMesh {
            cfg,
            rank,
            proc_coords,
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// This rank's processor-grid coordinates.
    pub fn proc_coords(&self) -> [usize; 3] {
        self.proc_coords
    }

    /// Number of local elements.
    pub fn nel(&self) -> usize {
        self.cfg.elems_per_rank()
    }

    /// Local element coordinates within this rank's block (x fastest).
    pub fn local_elem_coords(&self, le: usize) -> [usize; 3] {
        let [lx, ly, _lz] = self.cfg.local_elems;
        debug_assert!(le < self.nel());
        [le % lx, (le / lx) % ly, le / (lx * ly)]
    }

    /// Global element coordinates of local element `le`.
    pub fn global_elem_coords(&self, le: usize) -> [usize; 3] {
        let lc = self.local_elem_coords(le);
        let [lx, ly, lz] = self.cfg.local_elems;
        [
            self.proc_coords[0] * lx + lc[0],
            self.proc_coords[1] * ly + lc[1],
            self.proc_coords[2] * lz + lc[2],
        ]
    }

    /// Flattened global element id (x fastest over the global grid).
    pub fn global_elem_id(&self, le: usize) -> usize {
        let g = self.global_elem_coords(le);
        let ge = self.cfg.global_elems();
        (g[2] * ge[1] + g[1]) * ge[0] + g[0]
    }

    /// Owner rank and local index of the element at global coordinates.
    pub fn owner_of(&self, gc: [usize; 3]) -> (usize, usize) {
        let [lx, ly, lz] = self.cfg.local_elems;
        let [px, py, _pz] = self.cfg.proc_dims;
        let pc = [gc[0] / lx, gc[1] / ly, gc[2] / lz];
        let rank = (pc[2] * py + pc[1]) * px + pc[0];
        let lc = [gc[0] % lx, gc[1] % ly, gc[2] % lz];
        let le = (lc[2] * ly + lc[1]) * lx + lc[0];
        (rank, le)
    }

    /// The neighbor across face `f` of local element `le`.
    pub fn neighbor(&self, le: usize, f: Face) -> Neighbor {
        let mut gc = self.global_elem_coords(le);
        let ge = self.cfg.global_elems();
        let axis = f.axis();
        if f.sign() < 0 {
            if gc[axis] == 0 {
                if !self.cfg.periodic {
                    return Neighbor::Boundary;
                }
                gc[axis] = ge[axis] - 1;
            } else {
                gc[axis] -= 1;
            }
        } else if gc[axis] + 1 == ge[axis] {
            if !self.cfg.periodic {
                return Neighbor::Boundary;
            }
            gc[axis] = 0;
        } else {
            gc[axis] += 1;
        }
        let (rank, elem) = self.owner_of(gc);
        if rank == self.rank {
            Neighbor::Local(elem)
        } else {
            Neighbor::Remote { rank, elem }
        }
    }

    /// The set of ranks this rank exchanges faces with (its nearest
    /// neighbors in the processor grid), sorted ascending.
    pub fn neighbor_ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for le in 0..self.nel() {
            for f in Face::ALL {
                if let Neighbor::Remote { rank, .. } = self.neighbor(le, f) {
                    if !out.contains(&rank) {
                        out.push(rank);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Global id of GLL point `(i, j, k)` of local element `le` under the
    /// continuous (vertex-conforming) numbering.
    pub fn point_gid(&self, le: usize, i: usize, j: usize, k: usize) -> u64 {
        let n = self.cfg.n;
        debug_assert!(i < n && j < n && k < n);
        let gc = self.global_elem_coords(le);
        let gp = self.cfg.global_point_dims();
        let mut coord = [0usize; 3];
        for (d, idx) in [(0usize, i), (1, j), (2, k)] {
            let mut c = gc[d] * (n - 1) + idx;
            if self.cfg.periodic {
                c %= gp[d];
            }
            coord[d] = c;
        }
        ((coord[2] as u64 * gp[1] as u64) + coord[1] as u64) * gp[0] as u64 + coord[0] as u64
    }

    /// Continuous global ids of all `n^3 * nel` local volume points, in
    /// [`cmt_core::Field`] layout (`[e][k][j][i]`, `i` fastest). This is
    /// Nekbone's `dssum` index set.
    pub fn volume_point_gids(&self) -> Vec<u64> {
        let n = self.cfg.n;
        let mut out = Vec::with_capacity(n * n * n * self.nel());
        for le in 0..self.nel() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        out.push(self.point_gid(le, i, j, k));
                    }
                }
            }
        }
        out
    }

    /// Continuous global ids of the `6 n^2 * nel` local face points, in
    /// [`cmt_core::face::full2face`] layout. This is CMT-bone's DG surface
    /// exchange index set: the two sides of every interior face list the
    /// same gids in the same order.
    pub fn face_point_gids(&self) -> Vec<u64> {
        let n = self.cfg.n;
        let n2 = n * n;
        let mut out = Vec::with_capacity(6 * n2 * self.nel());
        for le in 0..self.nel() {
            for f in Face::ALL {
                for p in 0..n2 {
                    let v = face_point_volume_index(n, f, p);
                    let i = v % n;
                    let j = (v / n) % n;
                    let k = v / n2;
                    out.push(self.point_gid(le, i, j, k));
                }
            }
        }
        out
    }

    /// Global ids for the DG surface exchange, one per `(face-plane,
    /// in-plane point, axis)` — the numbering CMT-bone's numerical-flux
    /// proxy gathers over.
    ///
    /// Unlike [`RankMesh::face_point_gids`] (the continuous numbering,
    /// where an element-edge point is shared by up to 4 elements and a
    /// corner by up to 8), this numbering embeds the face *axis* in the
    /// id, so every id is held by exactly the two elements adjacent
    /// across that face (or one, on a non-periodic boundary). That
    /// pairwise property is what lets a `gs_op(Add)` recover the exact
    /// neighbor trace (`neighbor = sum - own`), which the distributed DG
    /// advection check relies on.
    ///
    /// Layout matches [`cmt_core::face::full2face`]: `[e][face][b][a]`.
    pub fn face_exchange_gids(&self) -> Vec<u64> {
        let geids: Vec<usize> = (0..self.nel()).map(|le| self.global_elem_id(le)).collect();
        face_exchange_gids_for(&self.cfg, &geids)
    }

    /// Whether GLL point `(i, j, k)` of local element `le` lies on the
    /// global domain boundary (always false on a periodic mesh). This is
    /// the predicate behind Nekbone's Dirichlet mask.
    pub fn is_boundary_point(&self, le: usize, i: usize, j: usize, k: usize) -> bool {
        if self.cfg.periodic {
            return false;
        }
        let n = self.cfg.n;
        let gc = self.global_elem_coords(le);
        let ge = self.cfg.global_elems();
        for (d, idx) in [(0usize, i), (1, j), (2, k)] {
            if (gc[d] == 0 && idx == 0) || (gc[d] + 1 == ge[d] && idx == n - 1) {
                return true;
            }
        }
        false
    }

    /// Multiplicity of volume point `(i, j, k)` of element `le`: how many
    /// elements share it under the continuous numbering (1 interior, 2 on
    /// a face, 4 on an edge, 8 at a corner — fewer at non-periodic domain
    /// boundaries).
    pub fn point_multiplicity(&self, le: usize, i: usize, j: usize, k: usize) -> usize {
        let n = self.cfg.n;
        let gc = self.global_elem_coords(le);
        let ge = self.cfg.global_elems();
        let mut mult = 1;
        for (d, idx) in [(0usize, i), (1, j), (2, k)] {
            let on_low = idx == 0;
            let on_high = idx == n - 1;
            if !(on_low || on_high) {
                continue;
            }
            let has_nbr = if self.cfg.periodic {
                ge[d] > 1
            } else if on_low {
                gc[d] > 0
            } else {
                gc[d] + 1 < ge[d]
            };
            // A periodic single-element direction wraps onto itself: the
            // low and high planes are the *same* global plane, so the
            // element touches it twice but the sharer count per plane is
            // still 2 (self twice). Treat it as shared.
            if has_nbr {
                mult *= 2;
            }
        }
        mult
    }
}

/// DG surface-exchange gids for an *arbitrary* list of global element
/// ids — the same numbering as [`RankMesh::face_exchange_gids`] (which
/// delegates here with its Cartesian block), usable for any
/// element-to-rank assignment. Because each id depends only on the
/// element's own global coordinates, the exactly-two-sharers property
/// holds under every partition — the basis for the load balancer's
/// claim that migrating elements never changes field results.
///
/// Layout matches [`cmt_core::face::full2face`]: `[e][face][b][a]`,
/// elements in the order given.
pub fn face_exchange_gids_for(cfg: &MeshConfig, geids: &[usize]) -> Vec<u64> {
    let n = cfg.n;
    let n2 = n * n;
    let ge = cfg.global_elems();
    // planes per axis: ex+1 interfaces non-periodically, ex when the
    // ends are identified
    let planes = |d: usize| {
        if cfg.periodic {
            ge[d] as u64
        } else {
            ge[d] as u64 + 1
        }
    };
    // In-plane point grid: *element-local* tangential numbering
    // (stride n, no endpoint merging). Merging tangential endpoints
    // would make a face-edge point's id appear on the faces of four
    // elements (two across the face x two along it); keeping each
    // element column's points distinct preserves the exactly-two-
    // sharers property while the two elements across a face still
    // agree (they share the same tangential element coordinates).
    let tang = |d: usize| (ge[d] * n) as u64;
    let mut out = Vec::with_capacity(6 * n2 * geids.len());
    // Per-axis id-space base offsets.
    let mut base = [0u64; 3];
    let mut acc = 0u64;
    for d in 0..3 {
        base[d] = acc;
        let t = [0, 1, 2usize];
        let (t1, t2) = match d {
            0 => (t[1], t[2]),
            1 => (t[0], t[2]),
            _ => (t[0], t[1]),
        };
        acc += planes(d) * tang(t1) * tang(t2);
    }
    for &geid in geids {
        let gc = cfg.elem_coords(geid);
        for f in Face::ALL {
            let axis = f.axis();
            let (t1, t2) = match axis {
                0 => (1usize, 2usize),
                1 => (0, 2),
                _ => (0, 1),
            };
            // global interface plane index along the face axis
            let mut plane = gc[axis] + if f.sign() > 0 { 1 } else { 0 };
            if cfg.periodic {
                plane %= ge[axis];
            }
            for p in 0..n2 {
                let a = p % n;
                let b = p / n;
                // face-local (a, b) map to tangential axes (t1, t2)
                let c1 = gc[t1] * n + a;
                let c2 = gc[t2] * n + b;
                let gid =
                    base[axis] + ((plane as u64) * tang(t1) + c1 as u64) * tang(t2) + c2 as u64;
                out.push(gid);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor3_matches_paper_splits() {
        assert_eq!(balanced_factor3(256), [8, 8, 4]);
        assert_eq!(balanced_factor3(100), [5, 5, 4]);
        assert_eq!(balanced_factor3(1), [1, 1, 1]);
        assert_eq!(balanced_factor3(8), [2, 2, 2]);
        assert_eq!(balanced_factor3(7), [7, 1, 1]);
        assert_eq!(balanced_factor3(12), [3, 2, 2]);
    }

    #[test]
    fn factor3_product_is_input() {
        for v in 1..=200 {
            let f = balanced_factor3(v);
            assert_eq!(f[0] * f[1] * f[2], v, "v={v}");
            assert!(f[0] >= f[1] && f[1] >= f[2], "v={v}: {f:?} not ordered");
        }
    }

    #[test]
    fn paper_fig7_configuration() {
        let cfg = MeshConfig::for_ranks(256, 100, 10, true);
        assert_eq!(cfg.proc_dims, [8, 8, 4]);
        assert_eq!(cfg.local_elems, [5, 5, 4]);
        assert_eq!(cfg.global_elems(), [40, 40, 16]);
        assert_eq!(cfg.total_elems(), 25600);
        let s = cfg.summary();
        assert!(s.contains("Total elements = 25600"));
        assert!(s.contains("8, 8, 4"));
    }

    #[test]
    fn element_ownership_partitions_domain() {
        let cfg = MeshConfig {
            n: 4,
            proc_dims: [2, 2, 1],
            local_elems: [2, 1, 3],
            periodic: true,
        };
        let mut seen = vec![false; cfg.total_elems()];
        for rank in 0..cfg.ranks() {
            let mesh = RankMesh::new(cfg.clone(), rank);
            for le in 0..mesh.nel() {
                let gid = mesh.global_elem_id(le);
                assert!(!seen[gid], "element {gid} owned twice");
                seen[gid] = true;
                // owner_of inverts the mapping
                let (orank, olec) = mesh.owner_of(mesh.global_elem_coords(le));
                assert_eq!((orank, olec), (rank, le));
            }
        }
        assert!(seen.iter().all(|&s| s), "some element unowned");
    }

    #[test]
    fn neighbor_symmetry_periodic() {
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [2, 1, 2],
            local_elems: [1, 3, 2],
            periodic: true,
        };
        let meshes: Vec<RankMesh> = (0..cfg.ranks())
            .map(|r| RankMesh::new(cfg.clone(), r))
            .collect();
        for mesh in &meshes {
            for le in 0..mesh.nel() {
                for f in Face::ALL {
                    let (nrank, nle) = match mesh.neighbor(le, f) {
                        Neighbor::Local(e) => (mesh.rank(), e),
                        Neighbor::Remote { rank, elem } => (rank, elem),
                        Neighbor::Boundary => panic!("no boundaries in periodic mesh"),
                    };
                    // the neighbor's neighbor across the opposite face is us
                    let back = meshes[nrank].neighbor(nle, f.opposite());
                    let (brank, ble) = match back {
                        Neighbor::Local(e) => (nrank, e),
                        Neighbor::Remote { rank, elem } => (rank, elem),
                        Neighbor::Boundary => panic!("asymmetric boundary"),
                    };
                    assert_eq!((brank, ble), (mesh.rank(), le));
                }
            }
        }
    }

    #[test]
    fn nonperiodic_boundaries_detected() {
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [2, 1, 1],
            local_elems: [1, 1, 1],
            periodic: false,
        };
        let m0 = RankMesh::new(cfg.clone(), 0);
        assert_eq!(m0.neighbor(0, Face::RMinus), Neighbor::Boundary);
        assert_eq!(
            m0.neighbor(0, Face::RPlus),
            Neighbor::Remote { rank: 1, elem: 0 }
        );
        assert_eq!(m0.neighbor(0, Face::SMinus), Neighbor::Boundary);
        assert_eq!(m0.neighbor(0, Face::TPlus), Neighbor::Boundary);
    }

    #[test]
    fn shared_face_points_have_equal_gids_across_ranks() {
        let cfg = MeshConfig {
            n: 4,
            proc_dims: [2, 2, 1],
            local_elems: [2, 2, 2],
            periodic: true,
        };
        let meshes: Vec<RankMesh> = (0..cfg.ranks())
            .map(|r| RankMesh::new(cfg.clone(), r))
            .collect();
        let n = cfg.n;
        let n2 = n * n;
        for mesh in &meshes {
            let gids = mesh.face_point_gids();
            for le in 0..mesh.nel() {
                for f in Face::ALL {
                    let (nrank, nle) = match mesh.neighbor(le, f) {
                        Neighbor::Local(e) => (mesh.rank(), e),
                        Neighbor::Remote { rank, elem } => (rank, elem),
                        Neighbor::Boundary => unreachable!(),
                    };
                    let ngids = meshes[nrank].face_point_gids();
                    let nf = f.opposite();
                    for p in 0..n2 {
                        let a = gids[(le * 6 + f.index()) * n2 + p];
                        let b = ngids[(nle * 6 + nf.index()) * n2 + p];
                        assert_eq!(a, b, "face gid mismatch at le={le} f={f:?} p={p}");
                    }
                }
            }
        }
    }

    #[test]
    fn volume_gids_cover_every_global_point_once_per_sharer() {
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [2, 1, 1],
            local_elems: [1, 2, 2],
            periodic: false,
        };
        let mut counts = std::collections::HashMap::<u64, usize>::new();
        for rank in 0..cfg.ranks() {
            let mesh = RankMesh::new(cfg.clone(), rank);
            for gid in mesh.volume_point_gids() {
                *counts.entry(gid).or_insert(0) += 1;
            }
        }
        // every global point appears, and total entries = n^3 * total elems
        assert_eq!(counts.len(), cfg.total_points());
        let total: usize = counts.values().sum();
        assert_eq!(total, 27 * cfg.total_elems());
        // interior-of-element points appear exactly once
        let mesh = RankMesh::new(cfg.clone(), 0);
        let gid_center = mesh.point_gid(0, 1, 1, 1);
        assert_eq!(counts[&gid_center], 1);
    }

    #[test]
    fn multiplicity_matches_global_count() {
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [2, 2, 1],
            local_elems: [1, 1, 2],
            periodic: true,
        };
        let mut counts = std::collections::HashMap::<u64, usize>::new();
        for rank in 0..cfg.ranks() {
            let mesh = RankMesh::new(cfg.clone(), rank);
            for gid in mesh.volume_point_gids() {
                *counts.entry(gid).or_insert(0) += 1;
            }
        }
        let mesh = RankMesh::new(cfg.clone(), 0);
        let n = cfg.n;
        for le in 0..mesh.nel() {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        let gid = mesh.point_gid(le, i, j, k);
                        let mult = mesh.point_multiplicity(le, i, j, k);
                        assert_eq!(
                            counts[&gid], mult,
                            "multiplicity mismatch at le={le} ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn face_exchange_gids_are_shared_by_exactly_two_elements() {
        for periodic in [true, false] {
            let cfg = MeshConfig {
                n: 3,
                proc_dims: [2, 1, 2],
                local_elems: [1, 2, 1],
                periodic,
            };
            let mut counts = std::collections::HashMap::<u64, usize>::new();
            for rank in 0..cfg.ranks() {
                let mesh = RankMesh::new(cfg.clone(), rank);
                for gid in mesh.face_exchange_gids() {
                    *counts.entry(gid).or_insert(0) += 1;
                }
            }
            for (&gid, &c) in &counts {
                if periodic {
                    assert_eq!(c, 2, "periodic gid {gid} shared by {c}");
                } else {
                    assert!(c == 1 || c == 2, "gid {gid} shared by {c}");
                }
            }
            if !periodic {
                // boundary face points exist
                assert!(counts.values().any(|&c| c == 1));
            }
        }
    }

    #[test]
    fn face_exchange_gids_match_across_interior_faces() {
        let cfg = MeshConfig {
            n: 4,
            proc_dims: [2, 2, 1],
            local_elems: [1, 1, 2],
            periodic: true,
        };
        let meshes: Vec<RankMesh> = (0..cfg.ranks())
            .map(|r| RankMesh::new(cfg.clone(), r))
            .collect();
        let n2 = cfg.n * cfg.n;
        for mesh in &meshes {
            let gids = mesh.face_exchange_gids();
            for le in 0..mesh.nel() {
                for f in Face::ALL {
                    let (nrank, nle) = match mesh.neighbor(le, f) {
                        Neighbor::Local(e) => (mesh.rank(), e),
                        Neighbor::Remote { rank, elem } => (rank, elem),
                        Neighbor::Boundary => unreachable!(),
                    };
                    let ngids = meshes[nrank].face_exchange_gids();
                    let nf = f.opposite();
                    for p in 0..n2 {
                        assert_eq!(
                            gids[(le * 6 + f.index()) * n2 + p],
                            ngids[(nle * 6 + nf.index()) * n2 + p],
                            "le={le} f={f:?} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn face_exchange_gids_distinct_within_element() {
        // all 6 n^2 ids of a single element are pairwise distinct (the
        // axis encoding prevents edge/corner merging)
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [1, 1, 1],
            local_elems: [2, 2, 2],
            periodic: true,
        };
        let mesh = RankMesh::new(cfg, 0);
        let gids = mesh.face_exchange_gids();
        let per_elem = 6 * 9;
        for le in 0..mesh.nel() {
            let mut seen = std::collections::HashSet::new();
            for p in 0..per_elem {
                assert!(
                    seen.insert(gids[le * per_elem + p]),
                    "duplicate gid within element {le}"
                );
            }
        }
    }

    #[test]
    fn boundary_points_detected_on_nonperiodic_mesh() {
        let cfg = MeshConfig {
            n: 3,
            proc_dims: [2, 1, 1],
            local_elems: [1, 2, 1],
            periodic: false,
        };
        let m0 = RankMesh::new(cfg.clone(), 0);
        let m1 = RankMesh::new(cfg.clone(), 1);
        // rank 0 holds x in [0,1): its i=0 plane is the domain boundary,
        // its i=n-1 plane is the interior interface to rank 1
        assert!(m0.is_boundary_point(0, 0, 1, 1));
        assert!(!m0.is_boundary_point(0, 2, 1, 1));
        assert!(m1.is_boundary_point(0, 2, 1, 1));
        // j/k boundaries
        assert!(m0.is_boundary_point(0, 1, 0, 1));
        assert!(m0.is_boundary_point(0, 1, 1, 2));
        assert!(!m0.is_boundary_point(0, 1, 1, 1));
        // element 1 of rank 0 is at gy=1 (the top): j=n-1 is boundary
        assert!(m0.is_boundary_point(1, 1, 2, 1));
        assert!(!m0.is_boundary_point(1, 1, 0, 1)); // interior interface gy=1 bottom? no: j=0 of gy=1 touches gy=0 -> interior
                                                    // periodic mesh never reports boundaries
        let per = RankMesh::new(
            MeshConfig {
                periodic: true,
                ..cfg
            },
            0,
        );
        for le in 0..per.nel() {
            for k in 0..3 {
                for j in 0..3 {
                    for i in 0..3 {
                        assert!(!per.is_boundary_point(le, i, j, k));
                    }
                }
            }
        }
    }

    #[test]
    fn neighbor_ranks_fig7_interior_rank_has_six() {
        let cfg = MeshConfig::for_ranks(27, 8, 4, true);
        assert_eq!(cfg.proc_dims, [3, 3, 3]);
        let mesh = RankMesh::new(cfg, 13); // center rank of 3x3x3
        assert_eq!(mesh.neighbor_ranks().len(), 6);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_range_rejected() {
        let cfg = MeshConfig::for_ranks(4, 1, 3, true);
        let _ = RankMesh::new(cfg, 4);
    }
}
