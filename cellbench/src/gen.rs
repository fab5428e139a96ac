//! Seeded multi-minute city generator.
//!
//! Everything the cell receives comes from here, and everything here
//! comes from one `u64` seed: the same seed gives bit-identical inputs
//! (pinned by [`MinuteSpec::digest`]).
//!
//! A minute is kept in a compact form — per vehicle its id, start
//! point, velocity and the 256-byte Bloom filter its DSRC exchange
//! would have produced — and a full 60-VD [`StoredVp`] is materialised
//! only when a window is about to be sent. A 20k-VP minute costs ~7 MB
//! that way instead of ~120 MB ([`MinuteSpec::bytes`]).
//!
//! Vehicles drive straight lines at 8–16 m/s, uniformly placed at
//! [`DENSITY_PER_KM2`]. Pairs that start within 380 m are Bloom-wired the
//! way a real exchange leaves them (each side holds the other's first
//! and last VD key), capped at 24 neighbours, so viewmaps built from the
//! minute have real viewlinks. Anchors are members of the population
//! flagged as authority VPs; they are submitted in-process, never over
//! the wire. Planted recordings are genuine `VpBuilder` cascades whose
//! video chunks the owner keeps, so a reward round can upload them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use viewmap_core::bloom::{probe_halves, probe_slot, DEFAULT_K, DEFAULT_M_BITS};
use viewmap_core::types::{GeoPos, MinuteId, VpId, SECONDS_PER_VP};
use viewmap_core::vd::ViewDigest;
use viewmap_core::viewmap::Site;
use viewmap_core::vp::{StoredVp, VpBuilder, VpKind};
use viewmap_core::BloomFilter;
use vm_crypto::Digest16;

/// Vehicles per km² (dense urban traffic).
pub const DENSITY_PER_KM2: f64 = 60.0;
/// Pairs starting closer than this are wired as DSRC neighbours.
const WIRE_RADIUS_M: f64 = 380.0;
/// Most neighbours one vehicle wires (well under the protocol's cap).
const WIRE_CAP: usize = 24;
/// Bytes per second of planted video (the chunks the owner uploads).
const CHUNK_BYTES: usize = 256;

/// Where a minute's authority anchors stand.
#[derive(Clone, Copy, Debug)]
pub enum Anchors {
    /// One anchor per this many km², uniformly placed.
    PerKm2(f64),
    /// A single anchor at the centre of the area.
    Centre,
}

/// Shape of one generated minute.
#[derive(Clone, Copy, Debug)]
pub struct CityParams {
    /// VPs in the minute, anchors and planted recordings included.
    pub vps_per_minute: usize,
    /// Anchor placement.
    pub anchors: Anchors,
    /// Share of the uploaded VPs that arrive during the next minute.
    pub late_share: f64,
    /// Genuine `VpBuilder` recordings planted in the minute.
    pub planted: usize,
}

/// A genuine recording planted in a minute: its VP plus what only the
/// owner holds (the secret behind the id and the video chunks).
#[derive(Clone)]
pub struct Planted {
    pub vp: StoredVp,
    pub secret: [u8; 8],
    pub chunks: Vec<Vec<u8>>,
}

impl Planted {
    /// A 200 m incident site on the recording's path.
    pub fn site(&self) -> Site {
        Site {
            center: self.vp.vds[SECONDS_PER_VP as usize / 2].loc,
            radius_m: 200.0,
        }
    }
}

/// One generated minute in compact form.
pub struct MinuteSpec {
    pub minute: MinuteId,
    /// Side of the square area, metres.
    pub side_m: f64,
    ids: Vec<VpId>,
    start: Vec<GeoPos>,
    vel: Vec<(f64, f64)>,
    blooms: Vec<BloomFilter>,
    /// Population indices of the authority anchors.
    pub anchor_idx: Vec<usize>,
    /// Population indices uploaded during the minute itself.
    pub on_time: Vec<usize>,
    /// Population indices uploaded during the next minute.
    pub late: Vec<usize>,
    /// Genuine recordings (uploaded with the on-time share).
    pub planted: Vec<Planted>,
}

/// Minutes `0..count` of one city, generated on two threads.
pub fn generate_minutes(params: &CityParams, count: usize, seed: u64) -> Vec<Arc<MinuteSpec>> {
    let (even, odd): (Vec<Arc<MinuteSpec>>, Vec<Arc<MinuteSpec>>) = std::thread::scope(|s| {
        let gen = |parity: usize| {
            s.spawn(move || {
                (parity..count)
                    .step_by(2)
                    .map(|m| Arc::new(MinuteSpec::generate(params, MinuteId(m as u64), seed)))
                    .collect::<Vec<_>>()
            })
        };
        let (a, b) = (gen(0), gen(1));
        (
            a.join().expect("generator thread panicked"),
            b.join().expect("generator thread panicked"),
        )
    });
    let mut out = Vec::with_capacity(count);
    let mut o = odd.into_iter();
    for x in even {
        out.push(x);
        out.extend(o.next());
    }
    out
}

/// Fisher–Yates shuffle on the seeded stream.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The VD vehicle `tag` claims at second `seq` of minute `minute`.
fn vd(
    id: VpId,
    tag: u64,
    minute: MinuteId,
    start: GeoPos,
    vel: (f64, f64),
    seq: u16,
) -> ViewDigest {
    let t = seq as f64;
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&tag.to_le_bytes());
    h[8..10].copy_from_slice(&seq.to_le_bytes());
    h[10..].copy_from_slice(&minute.0.to_le_bytes()[..6]);
    ViewDigest {
        seq,
        flags: 0,
        time: minute.start_second() + seq as u64,
        loc: GeoPos::new(start.x + vel.0 * t, start.y + vel.1 * t),
        file_size: seq as u64 * 875 * 1024,
        initial_loc: start,
        vp_id: id,
        hash: Digest16(h),
    }
}

impl MinuteSpec {
    /// Generate minute `minute` of a city from `seed`.
    pub fn generate(params: &CityParams, minute: MinuteId, seed: u64) -> MinuteSpec {
        let n = params.vps_per_minute;
        assert!(n > params.planted + 1, "minute too small for its plantings");
        let mut rng = StdRng::seed_from_u64(seed ^ minute.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let side_m = (n as f64 / DENSITY_PER_KM2).sqrt() * 1000.0;
        let centre = GeoPos::new(side_m / 2.0, side_m / 2.0);
        let area_km2 = side_m * side_m / 1e6;
        let anchor_count = match params.anchors {
            Anchors::PerKm2(km2) => ((area_km2 / km2).round() as usize).max(1),
            Anchors::Centre => 1,
        };

        // Synthetic population: indices [0, n - planted); anchors first.
        let synth = n - params.planted;
        let mut ids = Vec::with_capacity(n);
        let mut start = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        for i in 0..synth {
            ids.push(VpId(Digest16(rng.gen())));
            let p = match params.anchors {
                Anchors::Centre if i == 0 => centre,
                _ => GeoPos::new(rng.gen_range(0.0..side_m), rng.gen_range(0.0..side_m)),
            };
            start.push(p);
            let heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let speed: f64 = rng.gen_range(8.0..16.0);
            vel.push((speed * heading.cos(), speed * heading.sin()));
        }
        let keys: Vec<[Digest16; 2]> = (0..synth)
            .map(|i| {
                let tag = i as u64;
                let first = vd(ids[i], tag, minute, start[i], vel[i], 1);
                let last = vd(ids[i], tag, minute, start[i], vel[i], SECONDS_PER_VP as u16);
                [first.bloom_key(), last.bloom_key()]
            })
            .collect();
        let blooms = wire(&start, side_m, &keys);

        let anchor_idx: Vec<usize> = (0..anchor_count.min(synth)).collect();
        let planted: Vec<Planted> = (0..params.planted)
            .map(|k| {
                let d = LOCAL_OFFSETS_M[k % LOCAL_OFFSETS_M.len()];
                let at = near_anchor(&start, &vel, anchor_idx.len(), side_m, d, &mut rng);
                plant(&mut rng, minute, at)
            })
            .collect();

        let mut uploads: Vec<usize> = (anchor_count.min(synth)..synth).collect();
        shuffle(&mut rng, &mut uploads);
        let late_n = (uploads.len() as f64 * params.late_share).round() as usize;
        let late = uploads.split_off(uploads.len() - late_n);
        MinuteSpec {
            minute,
            side_m,
            ids,
            start,
            vel,
            blooms,
            anchor_idx,
            on_time: uploads,
            late,
            planted,
        }
    }

    /// The full VP of synthetic vehicle `i`.
    pub fn vp(&self, i: usize) -> StoredVp {
        let vds = (1..=SECONDS_PER_VP as u16)
            .map(|seq| {
                vd(
                    self.ids[i],
                    i as u64,
                    self.minute,
                    self.start[i],
                    self.vel[i],
                    seq,
                )
            })
            .collect();
        StoredVp::new(self.ids[i], vds, self.blooms[i].clone(), false)
    }

    /// The anchors, flagged trusted (the authority's in-process batch).
    pub fn anchors(&self) -> Vec<StoredVp> {
        self.anchor_idx
            .iter()
            .map(|&i| {
                let mut vp = self.vp(i);
                vp.trusted = true;
                vp
            })
            .collect()
    }

    /// Heap bytes the compact minute holds (the generator's memory).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let synth = self.ids.len();
        let per_vehicle = size_of::<VpId>()
            + size_of::<GeoPos>()
            + size_of::<(f64, f64)>()
            + size_of::<BloomFilter>()
            + self.blooms.first().map_or(0, |b| b.as_bytes().len());
        let indices = self.anchor_idx.len() + self.on_time.len() + self.late.len();
        let planted: usize = self
            .planted
            .iter()
            .map(|p| {
                p.vp.vds.len() * size_of::<ViewDigest>()
                    + p.vp.bloom.as_bytes().len()
                    + p.chunks.iter().map(Vec::len).sum::<usize>()
            })
            .sum();
        synth * per_vehicle + indices * size_of::<usize>() + planted
    }

    /// Id of synthetic vehicle `i`.
    pub fn id(&self, i: usize) -> VpId {
        self.ids[i]
    }

    /// The `k`-th local 200 m site: a seeded anchor's mid-minute
    /// position, offset by the `k`-th of [`LOCAL_OFFSETS_M`] in a seeded
    /// direction. The coverage area spans the site and the nearest
    /// anchor, so cycling the offsets gives every run and every seed
    /// the same mix of viewmap sizes.
    pub fn local_site(&self, k: usize, rng: &mut StdRng) -> Site {
        let d = LOCAL_OFFSETS_M[k % LOCAL_OFFSETS_M.len()];
        Site {
            center: near_anchor(
                &self.start,
                &self.vel,
                self.anchor_idx.len(),
                self.side_m,
                d,
                rng,
            ),
            radius_m: 200.0,
        }
    }

    /// A 200 m site at fraction `f` (0..1) of the way from the centre to
    /// the edge, in a seeded direction: the distance to a centre anchor
    /// sets how much of the minute a viewmap admits.
    pub fn site_at(&self, f: f64, rng: &mut StdRng) -> Site {
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let d = f * self.side_m / 2.0;
        Site {
            center: GeoPos::new(
                self.side_m / 2.0 + d * angle.cos(),
                self.side_m / 2.0 + d * angle.sin(),
            ),
            radius_m: 200.0,
        }
    }
}

/// Distances of local incident sites from their anchor, metres.
pub const LOCAL_OFFSETS_M: [f64; 3] = [250.0, 500.0, 750.0];

/// A point `d` metres from a seeded anchor's mid-minute position (the
/// anchors are population indices `0..anchors`), kept inside the area.
fn near_anchor(
    start: &[GeoPos],
    vel: &[(f64, f64)],
    anchors: usize,
    side_m: f64,
    d: f64,
    rng: &mut StdRng,
) -> GeoPos {
    let a = rng.gen_range(0..anchors);
    let half = SECONDS_PER_VP as f64 / 2.0;
    let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    GeoPos::new(
        (start[a].x + vel[a].0 * half + d * angle.cos()).clamp(0.0, side_m),
        (start[a].y + vel[a].1 * half + d * angle.sin()).clamp(0.0, side_m),
    )
}

/// The default filter's bit positions of a vehicle's two wired keys —
/// exactly the bits `BloomFilter::insert` sets, computed once per
/// vehicle rather than once per neighbour it is wired to, with the
/// filter size known at compile time.
fn key_slots(keys: &[Digest16; 2]) -> [u16; 2 * DEFAULT_K] {
    let mut out = [0u16; 2 * DEFAULT_K];
    for (key, slots) in keys.iter().zip(out.chunks_exact_mut(DEFAULT_K)) {
        let (h1, h2) = probe_halves(key);
        for (i, s) in slots.iter_mut().enumerate() {
            *s = probe_slot(h1, h2, DEFAULT_M_BITS as u64, i as u64) as u16;
        }
    }
    out
}

/// Bloom-wire every pair that starts within [`WIRE_RADIUS_M`].
fn wire(start: &[GeoPos], side_m: f64, keys: &[[Digest16; 2]]) -> Vec<BloomFilter> {
    let cells = (side_m / WIRE_RADIUS_M).ceil().max(1.0) as usize;
    let cell_of = |p: &GeoPos| {
        let c = |v: f64| ((v / WIRE_RADIUS_M) as usize).min(cells - 1);
        (c(p.x), c(p.y))
    };
    let mut grid: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
    for (i, p) in start.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        grid[cy * cells + cx].push(i);
    }
    // Pick the partners first, then fill each filter in one pass: bit
    // writes scattered over 20k filters would miss the cache on nearly
    // every wire.
    let mut partners = vec![0u32; start.len() * WIRE_CAP];
    let mut wired = vec![0usize; start.len()];
    let mut near = Vec::new();
    for i in 0..start.len() {
        let (cx, cy) = cell_of(&start[i]);
        near.clear();
        for y in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                near.extend(grid[y * cells + x].iter().copied().filter(|&j| j > i));
            }
        }
        near.sort_unstable();
        for &j in &near {
            if wired[i] >= WIRE_CAP {
                break;
            }
            if wired[j] >= WIRE_CAP || start[i].distance(&start[j]) > WIRE_RADIUS_M {
                continue;
            }
            partners[i * WIRE_CAP + wired[i]] = j as u32;
            partners[j * WIRE_CAP + wired[j]] = i as u32;
            wired[i] += 1;
            wired[j] += 1;
        }
    }
    let slots: Vec<[u16; 2 * DEFAULT_K]> = keys.iter().map(key_slots).collect();
    (0..start.len())
        .map(|i| {
            let mut bits = vec![0u8; DEFAULT_M_BITS / 8];
            for &j in &partners[i * WIRE_CAP..i * WIRE_CAP + wired[i]] {
                for &s in &slots[j as usize] {
                    bits[s as usize / 8] |= 1 << (s % 8);
                }
            }
            BloomFilter::from_bytes(bits, DEFAULT_K)
        })
        .collect()
}

/// Record one genuine minute of video driving east from `at`.
fn plant(rng: &mut StdRng, minute: MinuteId, at: GeoPos) -> Planted {
    let mut builder = VpBuilder::new(rng, minute.start_second(), at, VpKind::Actual);
    let chunks: Vec<Vec<u8>> = (0..SECONDS_PER_VP)
        .map(|_| (0..CHUNK_BYTES).map(|_| rng.gen::<u8>()).collect())
        .collect();
    for (s, chunk) in chunks.iter().enumerate() {
        builder.record_second(chunk, GeoPos::new(at.x + s as f64 * 10.0, at.y));
    }
    let fin = builder.finalize();
    Planted {
        vp: fin.profile.into_stored(),
        secret: fin.secret,
        chunks,
    }
}

#[cfg(test)]
impl MinuteSpec {
    /// Synthetic vehicles in the minute (anchors included, plantings not).
    fn synth_len(&self) -> usize {
        self.ids.len()
    }

    /// Every VP of the minute: synthetic vehicles plus plantings.
    fn len(&self) -> usize {
        self.ids.len() + self.planted.len()
    }

    /// Order-sensitive fingerprint of everything the minute would send.
    fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3).rotate_left(29);
        let mut fold = |vp: &StoredVp| {
            mix(vp.id.0.low_u64());
            mix(vp.id.0.high_u64());
            for vd in &vp.vds {
                mix(vd.time);
                mix(vd.loc.x.to_bits());
                mix(vd.loc.y.to_bits());
                mix(vd.hash.low_u64());
            }
            for chunk in vp.bloom.as_bytes().chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                mix(u64::from_le_bytes(w));
            }
        };
        for vp in self.anchors() {
            fold(&vp);
        }
        for &i in self.on_time.iter().chain(&self.late) {
            fold(&self.vp(i));
        }
        for p in &self.planted {
            fold(&p.vp);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewmap_core::server::ViewMapServer;
    use viewmap_core::upload::AnonymousSubmission;
    use viewmap_core::viewmap::ViewmapConfig;

    fn params() -> CityParams {
        CityParams {
            vps_per_minute: 3000,
            anchors: Anchors::PerKm2(4.0),
            late_share: 0.1,
            planted: 2,
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let a = MinuteSpec::generate(&params(), MinuteId(3), 7);
        let b = MinuteSpec::generate(&params(), MinuteId(3), 7);
        assert_eq!(a.digest(), b.digest());
        let c = MinuteSpec::generate(&params(), MinuteId(3), 8);
        assert_ne!(a.digest(), c.digest(), "another seed gives another city");
        let d = MinuteSpec::generate(&params(), MinuteId(4), 7);
        assert_ne!(a.digest(), d.digest(), "another minute gives other VPs");
    }

    #[test]
    fn key_slots_set_the_bits_insert_sets() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let keys = [Digest16(rng.gen()), Digest16(rng.gen())];
            let mut want = BloomFilter::default();
            want.insert(&keys[0]);
            want.insert(&keys[1]);
            let mut got = vec![0u8; DEFAULT_M_BITS / 8];
            for s in key_slots(&keys) {
                got[s as usize / 8] |= 1 << (s % 8);
            }
            assert_eq!(BloomFilter::from_bytes(got, DEFAULT_K), want);
        }
    }

    #[test]
    fn shares_partition_the_population() {
        let s = MinuteSpec::generate(&params(), MinuteId(1), 1);
        let mut all: Vec<usize> = s
            .anchor_idx
            .iter()
            .chain(&s.on_time)
            .chain(&s.late)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..s.synth_len()).collect::<Vec<_>>());
        assert_eq!(s.len(), 3000);
        let uploads = s.on_time.len() + s.late.len();
        assert_eq!(s.late.len(), (uploads as f64 * 0.1).round() as usize);
        // 3000 VPs at 60/km² cover 50 km²: about 12 anchors.
        assert!((10..=14).contains(&s.anchor_idx.len()));
        let centre = CityParams {
            anchors: Anchors::Centre,
            ..params()
        };
        assert_eq!(
            MinuteSpec::generate(&centre, MinuteId(1), 1).anchor_idx,
            vec![0]
        );
    }

    #[test]
    fn generated_vps_pass_the_screen_and_link() {
        let s = MinuteSpec::generate(&params(), MinuteId(2), 11);
        let mut rng = StdRng::seed_from_u64(1);
        let srv = ViewMapServer::new(&mut rng, 512, ViewmapConfig::default());
        let anchors = srv.submit_trusted_batch(s.anchors());
        assert!(anchors.iter().all(|r| r.is_ok()));
        let subs = s
            .on_time
            .iter()
            .chain(&s.late)
            .map(|&i| s.vp(i))
            .chain(s.planted.iter().map(|p| p.vp.clone()))
            .map(|vp| AnonymousSubmission { session_id: 0, vp });
        let results = srv.submit_batch(subs);
        assert_eq!(
            results.iter().filter(|r| r.is_err()).count(),
            0,
            "zero rejects"
        );
        assert_eq!(srv.total_vps(), s.len());
        for p in &s.planted {
            assert_eq!(p.vp.minute(), MinuteId(2));
        }
        let vm = srv.build_viewmap(MinuteId(2), s.local_site(1, &mut rng));
        assert!(
            vm.edge_count() > 0,
            "the generated minute has real viewlinks"
        );
    }
}
