//! Property tests for the fabric simulator substrate.

use ca_automata::{CharClass, ReportCode};
use ca_sim::{
    emit_pages, load_pages, Bitstream, CacheGeometry, DesignKind, Fabric, Mask256, PartitionImage,
    PartitionLocation, Route, RouteVia,
};
use proptest::prelude::*;

/// Random mask as a set of bit indices.
fn mask_strategy() -> impl Strategy<Value = Mask256> {
    prop::collection::vec(any::<u8>(), 0..12).prop_map(|v| v.into_iter().collect())
}

/// The two columns below each word boundary of a [`Mask256`]: a state
/// there crosses into the next word on a `+1` or `+2` edge, which is where
/// a dropped shift carry would show.
const BOUNDARY_COLUMNS: [usize; 6] = [62, 63, 126, 127, 190, 191];

/// A column below `n`, every other draw from [`BOUNDARY_COLUMNS`].
fn column(raw: u8, n: usize) -> usize {
    let pick =
        if raw.is_multiple_of(2) { BOUNDARY_COLUMNS[raw as usize / 2 % 6] } else { raw as usize };
    pick % n
}

/// What one partition is drawn from: STE count, label seeds, local
/// edges as (source, kind, operand), start columns, and whether a full
/// `s → s + 1` chain underlies the drawn edges.
type PartitionSpec = (usize, Vec<u8>, Vec<(u8, u8, u8)>, Vec<u8>, bool);

fn partition_spec() -> impl Strategy<Value = PartitionSpec> {
    (
        // STE counts on both sides of every word boundary, up to a full partition
        prop_oneof![1usize..12, 60usize..70, 120usize..136, 185usize..200, 250usize..257],
        prop::collection::vec(any::<u8>(), 1..8),
        prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
        prop::collection::vec(any::<u8>(), 0..3),
        prop::bool::ANY,
    )
}

/// Builds partition `i`. Labels are non-empty subsets of `a..=d` — the
/// alphabet [`input_strategy`] draws from, so states survive long enough
/// to meet the edges. Edge kinds: `+1` (twice as likely), `+2`, self-loop,
/// `+3..=8`, backward, 64 or more forward, anywhere.
fn build_partition(
    geometry: &CacheGeometry,
    i: usize,
    spec: &PartitionSpec,
    armed: bool,
) -> PartitionImage {
    let (n, seeds, edges, starts, chain) = spec;
    let n = *n;
    let mut p = PartitionImage::new(PartitionLocation::from_index(geometry, i));
    for k in 0..n {
        let subset = seeds[k % seeds.len()] % 15 + 1;
        let bytes: Vec<u8> = (0..4).filter(|b| subset >> b & 1 == 1).map(|b| b'a' + b).collect();
        p.labels.push(CharClass::of(&bytes));
        p.local.push(Mask256::ZERO);
        if *chain && k + 1 < n {
            p.local[k].set((k + 1) as u8);
        }
    }
    for &(src, kind, operand) in edges {
        let (src, operand) = (column(src, n), operand as usize);
        let dst = match kind % 8 {
            0 | 1 => src + 1,
            2 => src + 2,
            3 => src,
            4 => src + 3 + operand % 6,
            5 => operand % (src + 1),
            6 => src + 64 + operand % 64,
            _ => operand % n,
        };
        if dst < n {
            p.local[src].set(dst as u8);
        }
    }
    if armed {
        p.start_all.set(0);
        for &raw in starts {
            p.start_all.set(column(raw, n) as u8);
        }
    }
    p.reports.push(((n - 1) as u8, ReportCode(2 * i as u32)));
    if n > 2 {
        p.reports.push(((n / 2) as u8, ReportCode(2 * i as u32 + 1)));
    }
    p
}

/// G1 routes between distinct partitions, landing on arbitrary columns.
fn add_routes(
    partitions: &mut [PartitionImage],
    raw_routes: &[(usize, u8, usize, u8)],
) -> Vec<Route> {
    let mut routes = Vec::new();
    for &(src, ste, dst, dest_col) in raw_routes {
        let (src, dst) = (src % partitions.len(), dst % partitions.len());
        if src == dst {
            continue;
        }
        let ste = column(ste, partitions[src].labels.len()) as u8;
        let port = partitions[dst].import_dest.len() as u8;
        let mut dest = Mask256::ZERO;
        dest.set(column(dest_col, partitions[dst].labels.len()) as u8);
        partitions[dst].import_dest.push(dest);
        routes.push(Route {
            src_partition: src as u32,
            src_ste: ste,
            via: RouteVia::G1,
            dst_partition: dst as u32,
            dst_port: port,
        });
    }
    routes
}

fn raw_routes(max: usize) -> impl Strategy<Value = Vec<(usize, u8, usize, u8)>> {
    prop::collection::vec((0usize..16, any::<u8>(), 0usize..16, any::<u8>()), 0..max)
}

/// One way's worth of partitions with G1 routes between them. Partition 0
/// is always armed; the others only in a `busy` bitstream, by coin flip.
fn shaped_bitstream(
    design: DesignKind,
    partitions: std::ops::Range<usize>,
    max_routes: usize,
    busy: bool,
) -> impl Strategy<Value = Bitstream> {
    let geometry = CacheGeometry::for_design(design, 1);
    (prop::collection::vec((partition_spec(), prop::bool::ANY), partitions), raw_routes(max_routes))
        .prop_map(move |(specs, raw_routes)| {
            let mut partitions: Vec<PartitionImage> = specs
                .iter()
                .enumerate()
                .map(|(i, (spec, coin))| {
                    build_partition(&geometry, i, spec, i == 0 || busy && *coin)
                })
                .collect();
            let routes = add_routes(&mut partitions, &raw_routes);
            Bitstream { design, geometry, partitions, routes }
        })
        .prop_filter("valid", |bs| bs.validate().is_ok())
}

/// Saturated shape: 2–4 partitions, most of them armed, so nearly every
/// cycle with any activity covers a third of the fabric and takes the
/// sequential sweep.
fn busy_bitstream() -> impl Strategy<Value = Bitstream> {
    shaped_bitstream(DesignKind::Performance, 2..5, 6, true)
}

/// Low-activity shape: 12–16 partitions (one CA_S way) of which only the
/// first is armed; the rest wake through routes, so most cycles visit a
/// handful of partitions and take the sparse walk.
fn idle_bitstream() -> impl Strategy<Value = Bitstream> {
    shaped_bitstream(DesignKind::Space, 12..17, 12, false)
}

/// A random valid single-way bitstream of either shape: partitions of up
/// to 256 STEs with arbitrary labels, local switches and G1 routes.
fn bitstream_strategy() -> impl Strategy<Value = Bitstream> {
    prop_oneof![busy_bitstream(), idle_bitstream()]
}

/// Input over the alphabet the generated labels use.
fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(b'a'..b'f', 0..96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Configuration pages round-trip losslessly and the reloaded fabric
    /// behaves identically.
    #[test]
    fn pages_roundtrip_preserves_behaviour(
        bs in bitstream_strategy(),
        input in input_strategy(),
    ) {
        let image = emit_pages(&bs);
        let back = load_pages(&image).expect("roundtrip");
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.ste_count(), bs.ste_count());
        let a = Fabric::new(&bs).expect("valid").run(&input);
        let b = Fabric::new(&back).expect("valid").run(&input);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.stats.matched_total, b.stats.matched_total);
    }

    /// Truncating any page makes loading fail (no silent corruption).
    #[test]
    fn truncated_pages_never_load(bs in bitstream_strategy(), which in any::<prop::sample::Index>()) {
        let mut image = emit_pages(&bs);
        let idx = which.index(image.pages.len());
        let len = image.pages[idx].bytes.len();
        if len > 0 {
            image.pages[idx].bytes.truncate(len / 2);
            // either an error, or (for in-page truncation that still parses
            // a prefix) a size-mismatch error — never a silent success with
            // different content
            if let Ok(back) = load_pages(&image) {
                prop_assert_eq!(back, load_pages(&emit_pages(&bs)).unwrap());
            }
        }
    }

    /// Suspend/resume at an arbitrary split point is transparent (§2.9).
    #[test]
    fn suspend_resume_transparent(
        bs in bitstream_strategy(),
        input in input_strategy(),
        split in any::<prop::sample::Index>(),
    ) {
        let full = Fabric::new(&bs).expect("valid").run(&input);
        let at = split.index(input.len() + 1);
        let mut fabric = Fabric::new(&bs).expect("valid");
        let first = fabric.run(&input[..at]);
        let second = fabric.run_with(
            &input[at..],
            &ca_sim::RunOptions { resume: first.snapshot.clone(), ..Default::default() },
        ).expect("snapshot from the same fabric");
        let mut stitched = first.events.clone();
        stitched.extend(second.events.iter().copied());
        prop_assert_eq!(stitched, full.events);
        prop_assert_eq!(
            first.stats.matched_total + second.stats.matched_total,
            full.stats.matched_total
        );
    }

    /// Mask set/iter agreement under arbitrary operations.
    #[test]
    fn mask_algebra(a in mask_strategy(), b in mask_strategy()) {
        let or = a.or(&b);
        let and = a.and(&b);
        for bit in 0..=255u8 {
            prop_assert_eq!(or.get(bit), a.get(bit) || b.get(bit));
            prop_assert_eq!(and.get(bit), a.get(bit) && b.get(bit));
        }
        prop_assert_eq!(or.count() + and.count(), a.count() + b.count());
    }
}

/// The worklist scan is bit-identical to the dense reference loop — same
/// events, same stats (every counter), same exit snapshot — in both of its
/// modes. The sequential sweep applies the local switch as masked shifts
/// and the sparse walk ORs rows, so the cases must drive each: the busy
/// shape has to sweep and the idle shape has to walk, or the equality
/// below proves nothing about one of them.
#[test]
fn sparse_loop_agrees_with_dense_reference() {
    let mut rng = TestRng::from_name("sparse_loop_agrees_with_dense_reference");
    let shapes = [busy_bitstream().boxed(), idle_bitstream().boxed()];
    // (sweep cycles, sparse-walk cycles) seen per shape
    let mut cycles = [(0u64, 0u64); 2];
    for case in 0..192 {
        let shape = case % 2;
        let bs = shapes[shape].generate(&mut rng);
        let input = input_strategy().generate(&mut rng);
        let mut fabric = Fabric::new(&bs).expect("valid");
        let sparse = fabric.run(&input);
        let sweeps = fabric.sweep_cycles();
        cycles[shape].0 += sweeps;
        cycles[shape].1 += input.len() as u64 - sweeps;
        let dense = fabric.run_dense(&input, &ca_sim::RunOptions::default()).expect("fresh run");
        assert_eq!(sparse, dense, "case {case}, input {input:?}");
    }
    let [busy, idle] = cycles;
    assert!(busy.0 > 1000, "busy shape swept {} of {} cycles", busy.0, busy.0 + busy.1);
    assert!(idle.1 > 1000, "idle shape walked {} of {} cycles", idle.1, idle.0 + idle.1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary artifacts round-trip losslessly: decode(encode(bs)) is the
    /// identical bitstream, re-encoding is byte-stable, and the reloaded
    /// fabric behaves identically on arbitrary input.
    #[test]
    fn artifact_roundtrip_preserves_behaviour(
        bs in bitstream_strategy(),
        input in input_strategy(),
    ) {
        let bytes = bs.encode();
        let back = Bitstream::decode(&bytes).expect("roundtrip");
        prop_assert_eq!(&back, &bs);
        prop_assert_eq!(back.encode(), bytes.clone());
        let a = Fabric::new(&bs).expect("valid").run(&input);
        let b = Fabric::new(&back).expect("valid").run(&input);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.stats.matched_total, b.stats.matched_total);
    }

    /// Any single-byte corruption of an artifact is rejected — the header
    /// checks catch header damage, the checksum catches payload damage.
    #[test]
    fn corrupted_artifacts_never_decode(
        bs in bitstream_strategy(),
        which in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = bs.encode();
        let idx = which.index(bytes.len());
        bytes[idx] ^= flip;
        if let Ok(back) = Bitstream::decode(&bytes) {
            // the only byte whose flip may go unnoticed is none: magic,
            // version, design, reserved and checksum are all pinned, and
            // the payload is checksummed — decoding success means the flip
            // produced an equal artifact, which xor with flip != 0 forbids
            prop_assert_eq!(back, bs, "corrupted artifact decoded to something else");
            prop_assert!(false, "flipped byte {} yet decode succeeded", idx);
        }
    }

    /// Truncated artifacts are always rejected.
    #[test]
    fn truncated_artifacts_never_decode(
        bs in bitstream_strategy(),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = bs.encode();
        let at = cut.index(bytes.len());
        prop_assert!(Bitstream::decode(&bytes[..at]).is_err());
    }
}
