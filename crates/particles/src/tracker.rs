//! The particle tracker: cell-grid binned storage, RK2 advection, and
//! crystal-router migration.
//!
//! Ownership is partition-aware: the set carries an
//! [`ElemPartition`] (initially the Cartesian block decomposition, so
//! nothing changes until a load balancer installs a new one with
//! [`ParticleSet::set_partition`]), and every locate/migrate decision is
//! an O(1) arithmetic-plus-vector-index lookup — no search, no hash.
//! Particles are kept grouped by home element in a counting-sort cell
//! grid ([`ParticleSet::ensure_bins`]): advection walks one element's
//! residents at a time (one basis/element setup per *element* instead of
//! per particle), the load monitor reads per-element populations
//! directly off the bin offsets, and element migration drains a whole
//! element's residents as one contiguous slice.

use cmt_core::poly::Basis;
use cmt_core::{Field, KernelVariant};
use cmt_mesh::{ElemPartition, MeshConfig, RankMesh};
use simmpi::{MpiOp, Rank};

use crate::interp::{ElementInterpolator, LANES};

/// One Lagrangian point particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Globally unique id (stable across migrations).
    pub id: u64,
    /// Position in global physical coordinates (elements are unit cubes,
    /// so the periodic box is `global_elems` wide).
    pub pos: [f64; 3],
}

/// Outcome of one migration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationStats {
    /// Particles shipped to other ranks.
    pub sent: usize,
    /// Particles received from other ranks.
    pub received: usize,
}

/// The per-rank particle population, bound to the rank's mesh block.
pub struct ParticleSet {
    mesh: RankMesh,
    part: ElemPartition,
    interp: ElementInterpolator,
    /// The kernel tier [`ParticleSet::advect_field`] interpolates with.
    variant: KernelVariant,
    nodes_n: usize,
    lengths: [f64; 3],
    particles: Vec<Particle>,
    /// Cell-grid bin offsets: while `binned`, `self.particles` is grouped
    /// by home-element slot and `offsets[s]..offsets[s+1]` indexes slot
    /// `s`'s residents.
    offsets: Vec<u32>,
    binned: bool,
    /// Retained scratch, so a steady-state step allocates nothing: the
    /// bin sort's home slots, the second particle buffer the sort and
    /// `migrate` fill and swap in, and the lane-major cardinal bases of
    /// [`ElementInterpolator::eval_lanes`].
    homes: Vec<u32>,
    spare: Vec<Particle>,
    lane_basis: Vec<[f64; LANES]>,
    /// `migrate`'s staging, kept across calls: one `[id, x, y, z]`
    /// bucket per owner rank, and the crystal router's outgoing and
    /// arrived lists. A shipped bucket is replaced by a payload that
    /// arrived on the previous call, so capacities circulate.
    buckets: Vec<Vec<f64>>,
    outgoing: Vec<(usize, Vec<f64>)>,
    arrived: Vec<(usize, Vec<f64>)>,
}

/// Wrap one coordinate into the periodic `[0, len)`. A coordinate already
/// inside (every one `advect_field` has just wrapped) skips the `fmod`;
/// `rem_euclid` returns such an `x` unchanged, `-0.0` included.
fn wrap_coord(x: f64, len: f64) -> f64 {
    if (0.0..len).contains(&x) {
        x
    } else {
        x.rem_euclid(len)
    }
}

/// How many particles the seeding places in global element `gid`:
/// `per_elem` everywhere, or with `cluster = Some(frac)` only in the
/// elements whose x extent lies within the first `frac` of the domain (at
/// least one plane of elements, so the cloud is never empty). A pure
/// function of the configuration and the one definition of the seeded
/// cloud's shape: [`ParticleSet::seed`] goes through it, and so can a
/// step-0 decision that needs every element's population on every rank
/// without communication.
///
/// # Panics
/// Panics if `frac` is outside `(0, 1]`.
pub fn seeded_count(mesh: &MeshConfig, per_elem: usize, cluster: Option<f64>, gid: usize) -> usize {
    let Some(frac) = cluster else {
        return per_elem;
    };
    assert!(frac > 0.0 && frac <= 1.0, "cluster fraction in (0, 1]");
    let planes = mesh.global_elems()[0];
    let cut = ((frac * planes as f64).ceil() as usize).clamp(1, planes);
    if mesh.elem_coords(gid)[0] < cut {
        per_elem
    } else {
        0
    }
}

impl ParticleSet {
    /// An empty set on this rank's mesh, under the initial Cartesian
    /// partition, interpolating with the [`KernelVariant::Simd`] kernel.
    pub fn new(mesh: RankMesh, basis: &Basis) -> Self {
        Self::with_variant(mesh, basis, KernelVariant::Simd)
    }

    /// [`ParticleSet::new`] interpolating with `variant`'s particle
    /// kernel: `basic`/`optimized` run scalar lanes, `simd` the active
    /// ISA. Every variant gives the same bits.
    pub fn with_variant(mesh: RankMesh, basis: &Basis, variant: KernelVariant) -> Self {
        assert_eq!(mesh.config().n, basis.n, "basis order must match mesh");
        let ge = mesh.config().global_elems();
        let part = ElemPartition::initial(mesh.config());
        ParticleSet {
            interp: ElementInterpolator::new(basis),
            variant,
            nodes_n: basis.n,
            lengths: [ge[0] as f64, ge[1] as f64, ge[2] as f64],
            particles: Vec::new(),
            part,
            offsets: Vec::new(),
            binned: false,
            homes: Vec::new(),
            spare: Vec::new(),
            lane_basis: vec![[0.0; LANES]; 3 * basis.n],
            buckets: Vec::new(),
            outgoing: Vec::new(),
            arrived: Vec::new(),
            mesh,
        }
    }

    /// Number of particles currently on this rank.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether the rank holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Read-only particle view.
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// The periodic box extents.
    pub fn lengths(&self) -> [f64; 3] {
        self.lengths
    }

    /// The current element partition.
    pub fn partition(&self) -> &ElemPartition {
        &self.part
    }

    /// Global ids of this rank's owned elements, ascending — the local
    /// element order expected of the carrier fields.
    pub fn owned_elems(&self) -> &[usize] {
        self.part.owned_by(self.mesh.rank())
    }

    /// Install a new element partition (after a load-balancer element
    /// migration). Resident particles of departing elements must have
    /// been drained with [`ParticleSet::split_off_elems`] beforehand;
    /// arrivals are re-added with [`ParticleSet::insert`].
    pub fn set_partition(&mut self, part: ElemPartition) {
        assert_eq!(part.total_elems(), self.mesh.config().total_elems());
        self.part = part;
        self.binned = false;
    }

    /// Deterministically seed `per_elem` particles in each owned element
    /// (a low-discrepancy-ish lattice offset by the global element id, so
    /// ids and positions are identical regardless of rank count).
    pub fn seed_uniform(&mut self, per_elem: usize) {
        self.seed(per_elem, None);
    }

    /// Deterministically seed `per_elem` particles in each owned element
    /// whose x extent lies within the first `frac` of the domain — a
    /// clustered, imbalanced initial cloud (the load-balancer stress
    /// shape). Seeding is keyed by global element id, so the cloud is
    /// identical regardless of rank count or partition.
    pub fn seed_clustered(&mut self, per_elem: usize, frac: f64) {
        self.seed(per_elem, Some(frac));
    }

    /// Seed each owned element with its [`seeded_count`] particles:
    /// uniform without `cluster`, the low-x slab with it.
    pub fn seed(&mut self, per_elem: usize, cluster: Option<f64>) {
        for slot in 0..self.owned_elems().len() {
            let geid = self.owned_elems()[slot];
            let count = seeded_count(self.mesh.config(), per_elem, cluster, geid);
            let gc = self.mesh.config().elem_coords(geid);
            let geid = geid as u64;
            for q in 0..count as u64 {
                // golden-ratio lattice inside the element, biased off the
                // faces so a particle never sits exactly on a boundary
                let g = 0.618_033_988_749_895_f64;
                let frac = |m: u64| (0.5 + g * m as f64).fract() * 0.9 + 0.05;
                let pos = [
                    gc[0] as f64 + frac(geid.wrapping_mul(3).wrapping_add(q * 7 + 1)),
                    gc[1] as f64 + frac(geid.wrapping_mul(5).wrapping_add(q * 11 + 2)),
                    gc[2] as f64 + frac(geid.wrapping_mul(7).wrapping_add(q * 13 + 3)),
                ];
                self.particles.push(Particle {
                    id: geid * per_elem as u64 + q,
                    pos,
                });
            }
        }
        self.binned = false;
    }

    /// Insert one particle (must land in an element this rank owns; use
    /// [`ParticleSet::migrate`] afterwards if unsure).
    pub fn insert(&mut self, p: Particle) {
        self.particles.push(p);
        self.binned = false;
    }

    /// Wrap a position into the periodic box.
    fn wrap(&self, pos: [f64; 3]) -> [f64; 3] {
        std::array::from_fn(|d| wrap_coord(pos[d], self.lengths[d]))
    }

    /// Global id of the element containing a (wrapped) position — pure
    /// O(1) Cartesian arithmetic.
    fn cell_of(&self, pos: [f64; 3]) -> usize {
        let p = self.wrap(pos);
        let ge = self.mesh.config().global_elems();
        let mut gc = [0usize; 3];
        for d in 0..3 {
            gc[d] = (p[d].floor() as usize).min(ge[d] - 1);
        }
        self.mesh.config().elem_id(gc)
    }

    /// Owning rank, local element slot, and reference coordinates of a
    /// position (after periodic wrap). The slot indexes the owner's
    /// ascending-gid element order — for the initial Cartesian partition
    /// this is exactly the classical `RankMesh` local element index.
    pub fn locate(&self, pos: [f64; 3]) -> (usize, usize, [f64; 3]) {
        let p = self.wrap(pos);
        let ge = self.mesh.config().global_elems();
        let mut gc = [0usize; 3];
        let mut rst = [0.0; 3];
        for d in 0..3 {
            let cell = (p[d].floor() as usize).min(ge[d] - 1);
            gc[d] = cell;
            rst[d] = 2.0 * (p[d] - cell as f64) - 1.0;
        }
        let (rank, slot) = self.part.slot_of(self.mesh.config().elem_id(gc));
        (rank, slot, rst)
    }

    /// (Re)build the cell-grid bins: group `self.particles` by home
    /// element via a stable counting sort, then put each bin in ascending
    /// id order. O(particles + owned elements) when the bins hold few
    /// newcomers; a no-op when the grouping is already fresh.
    ///
    /// # Panics
    /// Panics if a particle is not on this rank (migration was skipped).
    pub fn ensure_bins(&mut self) {
        if self.binned {
            return;
        }
        let nel = self.owned_elems().len();
        let my_rank = self.mesh.rank();
        self.homes.clear();
        for i in 0..self.particles.len() {
            let p = self.particles[i];
            let (rank, slot) = self.part.slot_of(self.cell_of(p.pos));
            assert_eq!(
                rank, my_rank,
                "particle {} at {:?} is not local; migrate() first",
                p.id, p.pos
            );
            self.homes.push(slot as u32);
        }
        self.offsets.clear();
        self.offsets.resize(nel + 1, 0);
        for &h in &self.homes {
            self.offsets[h as usize + 1] += 1;
        }
        for s in 1..=nel {
            self.offsets[s] += self.offsets[s - 1];
        }
        // scatter with `offsets[s]` as slot `s`'s write cursor: it ends on
        // the start of slot `s + 1`, so one shift restores the offsets
        self.spare.clear();
        self.spare.extend_from_slice(&self.particles);
        for (p, &h) in self.particles.iter().zip(&self.homes) {
            let c = &mut self.offsets[h as usize];
            self.spare[*c as usize] = *p;
            *c += 1;
        }
        self.offsets.copy_within(0..nel, 1);
        self.offsets[0] = 0;
        // A bin is its stayers (ascending, from the last grouping) plus
        // the few particles advection or migration brought in since: only
        // a bin holding an out-of-order pair is sorted, in place.
        for s in 0..nel {
            let bin = &mut self.spare[self.offsets[s] as usize..self.offsets[s + 1] as usize];
            if !bin.is_sorted_by_key(|p| p.id) {
                bin.sort_unstable_by_key(|p| p.id);
            }
        }
        std::mem::swap(&mut self.particles, &mut self.spare);
        self.binned = true;
    }

    /// Resident-particle count per owned element (bin populations), in
    /// owned-element order. Rebuilds the bins if stale.
    pub fn counts_per_owned(&mut self) -> Vec<u32> {
        self.ensure_bins();
        (0..self.owned_elems().len())
            .map(|s| self.offsets[s + 1] - self.offsets[s])
            .collect()
    }

    /// The residents of owned-element slot `slot`, ascending by id (the
    /// bin sort orders each bin). Rebuilds the bins if stale.
    pub fn residents_of(&mut self, slot: usize) -> &[Particle] {
        self.ensure_bins();
        &self.particles[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Replace the resident population wholesale (checkpoint restore).
    pub fn set_particles(&mut self, particles: Vec<Particle>) {
        self.particles = particles;
        self.binned = false;
    }

    /// Remove and return the residents of every owned element for which
    /// `leaving(gid)` is true, grouped per element in ascending-gid
    /// order — the load balancer's element-migration drain. Each group's
    /// particles keep their bin order.
    pub fn split_off_elems(
        &mut self,
        leaving: impl Fn(usize) -> bool,
    ) -> Vec<(usize, Vec<Particle>)> {
        self.ensure_bins();
        let mut gone = Vec::new();
        let mut keep = Vec::with_capacity(self.particles.len());
        for slot in 0..self.owned_elems().len() {
            let gid = self.owned_elems()[slot];
            let range = self.offsets[slot] as usize..self.offsets[slot + 1] as usize;
            if leaving(gid) {
                gone.push((gid, self.particles[range].to_vec()));
            } else {
                keep.extend_from_slice(&self.particles[range]);
            }
        }
        self.particles = keep;
        self.binned = false;
        gone
    }

    /// RK2 (midpoint) advection with an analytic velocity field.
    pub fn advect_analytic(&mut self, dt: f64, vel: impl Fn([f64; 3]) -> [f64; 3]) {
        for p in &mut self.particles {
            let v1 = vel(p.pos);
            let mid = [
                p.pos[0] + 0.5 * dt * v1[0],
                p.pos[1] + 0.5 * dt * v1[1],
                p.pos[2] + 0.5 * dt * v1[2],
            ];
            let v2 = vel(mid);
            p.pos = [
                p.pos[0] + dt * v2[0],
                p.pos[1] + dt * v2[1],
                p.pos[2] + dt * v2[2],
            ];
        }
        let wrap_all: Vec<[f64; 3]> = self.particles.iter().map(|p| self.wrap(p.pos)).collect();
        for (p, w) in self.particles.iter_mut().zip(wrap_all) {
            p.pos = w;
        }
        self.binned = false;
    }

    /// RK2 advection with the velocity interpolated from the carrier
    /// fields resident on this rank, walking the cell grid one element at
    /// a time (bins are rebuilt first if stale).
    ///
    /// Both stage evaluations use the element the particle started the
    /// step in: a midpoint that has just crossed an element face is
    /// evaluated by (stable, mild) polynomial extrapolation, the standard
    /// one-sided treatment when the halo is not materialized. Particles
    /// themselves must currently be local — call [`ParticleSet::migrate`]
    /// after each step.
    ///
    /// # Panics
    /// Panics if a particle is not on this rank (migration was skipped)
    /// or the field shapes do not match the owned-element block.
    pub fn advect_field(&mut self, dt: f64, vel: [&Field; 3]) {
        for f in vel {
            assert_eq!(f.n(), self.nodes_n, "field order mismatch");
            assert_eq!(
                f.nel(),
                self.owned_elems().len(),
                "field element count mismatch"
            );
        }
        self.ensure_bins();
        let lengths = self.lengths;
        for slot in 0..self.owned_elems().len() {
            let range = self.offsets[slot] as usize..self.offsets[slot + 1] as usize;
            if range.is_empty() {
                continue;
            }
            let gc = self.mesh.config().elem_coords(self.owned_elems()[slot]);
            let corner = [gc[0] as f64, gc[1] as f64, gc[2] as f64];
            let data = vel.map(|f| f.element(slot));
            // reference coords w.r.t. this element for both stages (the
            // midpoint may extrapolate slightly past +-1)
            let to_rst = |x: &[[f64; LANES]; 3]| -> [[f64; LANES]; 3] {
                std::array::from_fn(|d| x[d].map(|xd| 2.0 * (xd - corner[d]) - 1.0))
            };
            // residents go LANES at a time, lane = fast index; a ragged
            // last group repeats its last particle in the spare lanes
            for group in self.particles[range].chunks_mut(LANES) {
                let last = group.len() - 1;
                let pos: [[f64; LANES]; 3] =
                    std::array::from_fn(|d| std::array::from_fn(|l| group[l.min(last)].pos[d]));
                let v1 =
                    self.interp
                        .eval_lanes(self.variant, data, &to_rst(&pos), &mut self.lane_basis);
                let mid: [[f64; LANES]; 3] = std::array::from_fn(|d| {
                    std::array::from_fn(|l| pos[d][l] + 0.5 * dt * v1[d][l])
                });
                let v2 =
                    self.interp
                        .eval_lanes(self.variant, data, &to_rst(&mid), &mut self.lane_basis);
                for (l, p) in group.iter_mut().enumerate() {
                    p.pos =
                        std::array::from_fn(|d| wrap_coord(pos[d][l] + dt * v2[d][l], lengths[d]));
                }
            }
        }
        self.binned = false;
    }

    /// Ship every particle that has left this rank's elements to its new
    /// owner via the crystal router (particle traffic is generally *not*
    /// nearest-neighbor, which is exactly the router's use case). The
    /// traffic is badged as the `lb_migrate` mpiP operation — particle
    /// ownership movement is load-balancer traffic whether triggered by
    /// advection or by an element repartition.
    ///
    /// Collective over the world.
    pub fn migrate(&mut self, rank: &mut Rank) -> MigrationStats {
        let my_rank = self.mesh.rank();
        debug_assert_eq!(my_rank, rank.rank(), "mesh/world rank mismatch");
        let mut keep = std::mem::take(&mut self.spare);
        keep.clear();
        self.buckets.resize_with(self.part.ranks(), Vec::new);
        for &prt in &self.particles {
            let owner = self.part.owner_of(self.cell_of(prt.pos));
            if owner == my_rank {
                keep.push(prt);
            } else {
                // wire format: 4 f64 per particle [id, x, y, z] — ids fit
                // f64 exactly up to 2^53, far beyond any population here
                let b = &mut self.buckets[owner];
                b.push(prt.id as f64);
                b.extend_from_slice(&prt.pos);
            }
        }
        let mut sent = 0;
        debug_assert!(self.outgoing.is_empty());
        for (owner, b) in self.buckets.iter_mut().enumerate() {
            if !b.is_empty() {
                sent += b.len() / 4;
                let mut refill = self.arrived.pop().map(|(_, v)| v).unwrap_or_default();
                refill.clear();
                self.outgoing.push((owner, std::mem::replace(b, refill)));
            }
        }
        rank.set_context("particle_migration");
        rank.with_op_badge(MpiOp::LbMigrate, |rank| {
            rank.crystal_router_into(&mut self.outgoing, &mut self.arrived)
        });
        rank.set_context("main");
        let mut received = 0;
        for (_src, data) in &self.arrived {
            assert_eq!(data.len() % 4, 0, "corrupt particle payload");
            for chunk in data.chunks_exact(4) {
                received += 1;
                keep.push(Particle {
                    id: chunk[0] as u64,
                    pos: [chunk[1], chunk[2], chunk[3]],
                });
            }
        }
        // arrivals come sorted by source rank, so the order is
        // deterministic; `ensure_bins` restores id order per element.
        // `arrived` keeps its payloads to refill the next call's buckets.
        self.spare = std::mem::replace(&mut self.particles, keep);
        self.binned = false;
        MigrationStats { sent, received }
    }

    /// World-wide particle count (allreduce).
    pub fn global_count(&self, rank: &mut Rank) -> u64 {
        rank.allreduce_u64(&[self.particles.len() as u64], simmpi::ReduceOp::Sum)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_rank_set(elems: [usize; 3], n: usize) -> ParticleSet {
        single_rank_set_with(elems, n, KernelVariant::Simd)
    }

    fn single_rank_set_with(elems: [usize; 3], n: usize, variant: KernelVariant) -> ParticleSet {
        let cfg = MeshConfig {
            n,
            proc_dims: [1, 1, 1],
            local_elems: elems,
            periodic: true,
        };
        let basis = Basis::new(n);
        ParticleSet::with_variant(RankMesh::new(cfg, 0), &basis, variant)
    }

    #[test]
    fn seeding_is_deterministic_and_in_bounds() {
        let mut a = single_rank_set([2, 2, 2], 4);
        let mut b = single_rank_set([2, 2, 2], 4);
        a.seed_uniform(3);
        b.seed_uniform(3);
        assert_eq!(a.len(), 24);
        assert_eq!(a.particles(), b.particles());
        for p in a.particles() {
            for d in 0..3 {
                assert!(p.pos[d] >= 0.0 && p.pos[d] < 2.0);
            }
        }
        // ids unique
        let mut ids: Vec<u64> = a.particles().iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 24);
    }

    #[test]
    fn clustered_seeding_stays_in_the_front_slab() {
        let mut set = single_rank_set([4, 2, 2], 4);
        set.seed_clustered(5, 0.5);
        // x-cut at ceil(0.5 * 4) = 2 element planes -> half the elements
        assert_eq!(set.len(), 8 * 5);
        assert!(set.particles().iter().all(|p| p.pos[0] < 2.0));
        // same elements seeded by the uniform path carry identical ids
        // and positions (seeding is keyed by global element id)
        let mut uni = single_rank_set([4, 2, 2], 4);
        uni.seed_uniform(5);
        for p in set.particles() {
            assert!(uni.particles().contains(p));
        }
    }

    /// The seeded cloud is what `seeded_count` says, element by element:
    /// on 4 ranks, the allgathered bin populations of the seeded set equal
    /// the function's per-element counts, uniform and clustered.
    #[test]
    fn seeded_count_is_the_allgathered_seeded_population() {
        let ranks = 4;
        let cfg = MeshConfig::for_ranks(ranks, 8, 4, true);
        let per_elem = 3;
        for cluster in [None, Some(0.25), Some(1e-9)] {
            let mesh = cfg.clone();
            let res = simmpi::World::new().run(ranks, move |rank| {
                let pmesh = RankMesh::new(mesh.clone(), rank.rank());
                let mut set = ParticleSet::new(pmesh, &Basis::new(mesh.n));
                match cluster {
                    Some(frac) => set.seed_clustered(per_elem, frac),
                    None => set.seed_uniform(per_elem),
                }
                let owned = set.owned_elems().to_vec();
                let mut slots = vec![0u64; mesh.total_elems()];
                for (gid, c) in owned.into_iter().zip(set.counts_per_owned()) {
                    slots[gid] = c as u64;
                }
                rank.allreduce_u64(&slots, simmpi::ReduceOp::Sum)
            });
            let want: Vec<u64> = (0..cfg.total_elems())
                .map(|gid| seeded_count(&cfg, per_elem, cluster, gid) as u64)
                .collect();
            for got in &res.results {
                assert_eq!(got, &want, "cluster {cluster:?}");
            }
            // a clustered cloud is a strict, non-empty part of the uniform one
            let seeded = want.iter().filter(|&&c| c > 0).count();
            match cluster {
                None => assert_eq!(seeded, cfg.total_elems()),
                Some(_) => assert!(seeded > 0 && seeded < cfg.total_elems(), "{seeded}"),
            }
        }
    }

    #[test]
    fn bins_group_particles_by_element() {
        let mut set = single_rank_set([2, 2, 1], 4);
        set.seed_uniform(3);
        let counts = set.counts_per_owned();
        assert_eq!(counts, vec![3, 3, 3, 3]);
        // grouped: walking the bins visits each particle exactly once,
        // and every particle in slot s locates to slot s
        set.ensure_bins();
        for slot in 0..4 {
            let range = set.offsets[slot] as usize..set.offsets[slot + 1] as usize;
            for idx in range {
                let (_, s, _) = set.locate(set.particles[idx].pos);
                assert_eq!(s, slot);
            }
        }
    }

    #[test]
    fn split_off_elems_drains_whole_elements() {
        let mut set = single_rank_set([2, 1, 1], 4);
        set.seed_uniform(2);
        let gone = set.split_off_elems(|gid| gid == 1);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].0, 1);
        assert_eq!(gone[0].1.len(), 2);
        assert_eq!(set.len(), 2);
        assert!(set.particles().iter().all(|p| p.pos[0] < 1.0));
    }

    #[test]
    fn constant_velocity_is_integrated_exactly() {
        let mut set = single_rank_set([3, 1, 1], 4);
        set.insert(Particle {
            id: 0,
            pos: [0.5, 0.5, 0.5],
        });
        let v = [0.3, -0.1, 0.2];
        for _ in 0..10 {
            set.advect_analytic(0.05, |_| v);
        }
        let p = set.particles()[0];
        // 0.5 + 0.3*0.5 = 0.65 etc., with periodic wrap
        assert!((p.pos[0] - 0.65).abs() < 1e-12);
        assert!((p.pos[1] - (0.5f64 - 0.05).rem_euclid(1.0)).abs() < 1e-12);
        assert!((p.pos[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rotation_stays_on_circle_to_second_order() {
        // planar solid-body rotation about the box center (1.5, 1.5)
        let mut set = single_rank_set([3, 3, 1], 4);
        let start = [2.0, 1.5, 0.5];
        set.insert(Particle { id: 0, pos: start });
        let omega = 1.0;
        let vel = move |p: [f64; 3]| [-(p[1] - 1.5) * omega, (p[0] - 1.5) * omega, 0.0];
        let dt = 1e-3;
        let steps = 500;
        for _ in 0..steps {
            set.advect_analytic(dt, vel);
        }
        let p = set.particles()[0].pos;
        let r = ((p[0] - 1.5).powi(2) + (p[1] - 1.5).powi(2)).sqrt();
        assert!((r - 0.5).abs() < 1e-5, "radius drifted to {r}");
        // angle after t = 0.5 rad
        let theta = (p[1] - 1.5).atan2(p[0] - 1.5);
        assert!((theta - 0.5).abs() < 1e-4, "angle {theta}");
    }

    #[test]
    fn field_advection_matches_analytic_for_polynomial_velocity() {
        // velocity (linear in x, constant elsewhere) is exactly
        // representable at order n >= 2, so interpolated advection must
        // match the analytic integrator step for step.
        let n = 4;
        let mut set_f = single_rank_set([2, 1, 1], n);
        let mut set_a = single_rank_set([2, 1, 1], n);
        let p0 = Particle {
            id: 9,
            pos: [0.3, 0.4, 0.6],
        };
        set_f.insert(p0);
        set_a.insert(p0);
        let basis = Basis::new(n);
        let mesh = single_rank_set([2, 1, 1], n).mesh.clone();
        let vel_fn = |x: f64| 0.2 + 0.1 * x;
        let mk_field = |comp: usize| {
            Field::from_fn(n, mesh.nel(), |e, i, j, k| {
                let gc = mesh.global_elem_coords(e);
                let x = gc[0] as f64 + (basis.nodes[i] + 1.0) / 2.0;
                let _ = (j, k);
                match comp {
                    0 => vel_fn(x),
                    _ => 0.0,
                }
            })
        };
        let vx = mk_field(0);
        let vy = mk_field(1);
        let vz = mk_field(2);
        for _ in 0..20 {
            set_f.advect_field(0.01, [&vx, &vy, &vz]);
            set_a.advect_analytic(0.01, |p| [vel_fn(p[0]), 0.0, 0.0]);
        }
        let (pf, pa) = (set_f.particles()[0].pos, set_a.particles()[0].pos);
        for d in 0..3 {
            assert!(
                (pf[d] - pa[d]).abs() < 1e-10,
                "dim {d}: {} vs {}",
                pf[d],
                pa[d]
            );
        }
    }

    /// The per-particle definition of one `advect_field` step — scalar
    /// `cardinal`, one dependent add chain per field, `rem_euclid` on
    /// every coordinate — kept here as the oracle the lane-batched
    /// routine is held to, bit for bit. Returns the new position and the
    /// midpoint's reference coordinates.
    fn reference_advect(
        set: &ParticleSet,
        p: Particle,
        dt: f64,
        vel: [&Field; 3],
    ) -> ([f64; 3], [f64; 3]) {
        let n = set.nodes_n;
        let (_, slot, _) = set.locate(p.pos);
        let gc = set.mesh.config().elem_coords(set.owned_elems()[slot]);
        let to_rst = |x: [f64; 3]| [0, 1, 2].map(|d| 2.0 * (x[d] - gc[d] as f64) - 1.0);
        let eval_many = |rst: [f64; 3]| {
            let (mut lr, mut ls, mut lt) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            set.interp.cardinal(rst[0], &mut lr);
            set.interp.cardinal(rst[1], &mut ls);
            set.interp.cardinal(rst[2], &mut lt);
            vel.map(|f| {
                let data = f.element(slot);
                let mut acc = 0.0;
                for k in 0..n {
                    let wk = lt[k];
                    for j in 0..n {
                        let wjk = wk * ls[j];
                        let row = &data[(k * n + j) * n..(k * n + j) * n + n];
                        let mut s = 0.0;
                        for (li, ui) in lr.iter().zip(row) {
                            s += li * ui;
                        }
                        acc += wjk * s;
                    }
                }
                acc
            })
        };
        let v1 = eval_many(to_rst(p.pos));
        let mid = [0, 1, 2].map(|d| p.pos[d] + 0.5 * dt * v1[d]);
        let v2 = eval_many(to_rst(mid));
        let moved = [0, 1, 2].map(|d| (p.pos[d] + dt * v2[d]).rem_euclid(set.lengths[d]));
        (moved, to_rst(mid))
    }

    #[test]
    fn lane_batched_advection_is_bitwise_the_per_particle_reference() {
        // one bin of every group shape, an empty element between two
        // populated ones, and the special residents in element 6; the
        // scalar lanes and the active ISA's vector kernel alike
        let pops = [1, LANES - 1, 0, LANES, LANES + 1, 257, 0];
        let variants = [KernelVariant::Optimized, KernelVariant::Simd];
        for (n, variant) in (2..=10).flat_map(|n| variants.map(|v| (n, v))) {
            let mut set = single_rank_set_with([pops.len(), 1, 1], n, variant);
            let nodes = Basis::new(n).nodes;
            let vel: [Field; 3] = std::array::from_fn(|c| {
                Field::from_fn(n, pops.len(), |e, i, j, k| {
                    let x = e as f64 + (nodes[i] + 1.0) / 2.0;
                    let (y, z) = (nodes[j], nodes[k]);
                    0.4 + 0.3 * ((1.3 + c as f64) * x + 0.7 * y - 0.9 * z * (c + 1) as f64).sin()
                })
            });
            let vel = [&vel[0], &vel[1], &vel[2]];
            let mut lcg = 0x2545_F491_4F6C_DD1Du64;
            let mut unit = || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0.02 + 0.96 * ((lcg >> 11) as f64 / (1u64 << 53) as f64)
            };
            // ids count insertions, so `want[id]` below finds a particle
            let add = |set: &mut ParticleSet, pos| {
                let id = set.len() as u64;
                set.insert(Particle { id, pos });
            };
            for (e, &pop) in pops.iter().enumerate() {
                for _ in 0..pop {
                    add(&mut set, [e as f64 + unit(), unit(), unit()]);
                }
            }
            // on a GLL node in each direction in turn, then in all three
            // (the `delta` branch), sharing groups with off-node lanes
            let on = |i: usize| (nodes[i] + 1.0) / 2.0;
            add(&mut set, [6.0 + on(1), 0.3, 0.7]);
            add(&mut set, [6.2, on(0), 0.7]);
            add(&mut set, [6.2, 0.3, on(n - 1)]);
            add(&mut set, [6.0 + on(n - 1), on(1), on(0)]);
            add(&mut set, [6.4, 0.6, 0.1]);
            let mut delta = vec![0.0; n];
            set.interp.cardinal(2.0 * on(1) - 1.0, &mut delta);
            assert_eq!(delta.iter().filter(|&&v| v == 0.0).count(), n - 1);
            // hard against the +x and -y faces: the midpoint extrapolates
            let edge = set.len();
            add(&mut set, [6.999, 0.001, 0.5]);

            let dt = 0.1;
            for step in 0..2 {
                // (new position, midpoint reference coords), by id
                let mut want = vec![([0.0; 3], [0.0; 3]); set.len()];
                for &p in set.particles() {
                    want[p.id as usize] = reference_advect(&set, p, dt, vel);
                }
                if step == 0 {
                    let (_, mid_rst) = want[edge];
                    assert!(mid_rst[0] > 1.0, "midpoint stayed inside: {mid_rst:?}");
                }
                set.advect_field(dt, vel);
                assert_eq!(set.len(), want.len());
                for p in set.particles() {
                    let (moved, _) = want[p.id as usize];
                    assert_eq!(
                        p.pos.map(f64::to_bits),
                        moved.map(f64::to_bits),
                        "{} n = {n}, step {step}, particle {}: {:?} vs {moved:?}",
                        variant.name(),
                        p.id,
                        p.pos
                    );
                }
            }
        }
    }

    #[test]
    fn wrap_fast_path_is_rem_euclid() {
        for len in [1.0f64, 3.0, 12.0] {
            let mut xs = vec![
                0.0,
                -0.0,
                len,
                -len,
                len.next_down(),
                len.next_up(),
                (-len).next_up(),
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                -1e-300,
                1e300,
                -1e300,
            ];
            xs.extend((-500..=500).map(|i| i as f64 * len / 200.0));
            for x in xs {
                assert_eq!(
                    wrap_coord(x, len).to_bits(),
                    x.rem_euclid(len).to_bits(),
                    "x = {x:e}, len = {len}"
                );
            }
        }
    }

    #[test]
    fn locate_assigns_reference_coordinates() {
        let set = single_rank_set([2, 2, 2], 5);
        let (rank, le, rst) = set.locate([1.25, 0.5, 1.999]);
        assert_eq!(rank, 0);
        let gc = set.mesh.global_elem_coords(le);
        assert_eq!(gc, [1, 0, 1]);
        assert!((rst[0] + 0.5).abs() < 1e-12);
        assert!((rst[1] - 0.0).abs() < 1e-12);
        assert!(rst[2] > 0.99);
        // periodic wrap
        let (_, le2, _) = set.locate([-0.25, 2.5, 0.0]);
        assert_eq!(set.mesh.global_elem_coords(le2), [1, 0, 0]);
    }

    #[test]
    fn locate_follows_the_installed_partition() {
        // 2 elements, single rank mesh view, but a partition claiming
        // element 1 belongs to "rank 1" of a 2-rank world: locate must
        // report the partition's owner, not the Cartesian block's.
        let cfg = MeshConfig {
            n: 4,
            proc_dims: [2, 1, 1],
            local_elems: [1, 1, 1],
            periodic: true,
        };
        let basis = Basis::new(4);
        let mut set = ParticleSet::new(RankMesh::new(cfg, 0), &basis);
        assert_eq!(set.locate([1.5, 0.5, 0.5]).0, 1);
        // swap ownership
        set.set_partition(ElemPartition::from_owner(2, vec![1, 0]));
        assert_eq!(set.owned_elems(), &[1]);
        assert_eq!(set.locate([1.5, 0.5, 0.5]).0, 0);
        assert_eq!(set.locate([0.5, 0.5, 0.5]).0, 1);
    }
}
