//! Byte-level pins of the two things a refactor of the codecs must not
//! move: the wire encoding of every frame kind, and the CAAR / CAPR
//! artifact containers. Round-trip tests cannot catch an encoder and a
//! decoder drifting together; these compare against bytes written down.

use cache_automaton::{
    CacheAutomaton, CacheKey, CacheServerStats, Design, ExecStats, Fingerprint, Frame, MatchEvent,
    ReportCode, ServerStats, WireReport,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a 64, spelled out here so the pin does not lean on the library's
/// own checksum routine.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn key() -> CacheKey {
    CacheKey {
        fingerprint: Fingerprint(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
        design: Design::Space,
        slices: 16,
        seed: 0xdead_beef,
        optimized: true,
    }
}

/// One frame of each of the 20 kinds with its exact wire bytes.
fn pinned_frames() -> Vec<(Frame, &'static str)> {
    let event = |pos, code| MatchEvent::new(pos, ReportCode(code));
    vec![
        (Frame::OpenStream, "0000000001010000"),
        (
            Frame::FeedChunk { stream: 7, data: b"abc\x00\xff".to_vec() },
            "0d00000001020000070000000000000061626300ff",
        ),
        (Frame::PollMatches { stream: 3 }, "08000000010300000300000000000000"),
        (Frame::Finish { stream: 0x0102_0304_0506_0708 }, "08000000010400000807060504030201"),
        (Frame::Stats, "0000000001050000"),
        (Frame::Reload { rules: "ab\nc[de]\n".into() }, "090000000106000061620a635b64655d0a"),
        (
            Frame::CacheGet { key: key() },
            "2200000001070000ffeeddccbbaa99887766554433221100011000000000000000efbeadde0000000001",
        ),
        (
            Frame::CachePut { key: key(), artifact: b"CAPR\x01".to_vec() },
            "2700000001080000ffeeddccbbaa99887766554433221100011000000000000000efbeadde0000000001\
             4341505201",
        ),
        (Frame::CacheStats, "0000000001090000"),
        (
            Frame::StreamOpened { stream: 1, generation: 2 },
            "100000000181000001000000000000000200000000000000",
        ),
        (
            Frame::FeedAck { stream: 1, bytes: 4096 },
            "100000000182000001000000000000000010000000000000",
        ),
        (
            Frame::Matches { stream: 9, events: vec![event(5, 1), event(u64::MAX, u32::MAX)] },
            "2400000001830000090000000000000002000000050000000000000001000000ffffffffffffffff\
             ffffffff",
        ),
        (
            Frame::Finished {
                stream: 2,
                report: WireReport {
                    events: vec![event(5, 1)],
                    exec: ExecStats {
                        symbols: 10,
                        cycles: 12,
                        active_partition_cycles: 3,
                        matched_total: 4,
                        g1_signals: 5,
                        g4_signals: 6,
                        reports: 1,
                        output_interrupts: 7,
                        fifo_refills: 8,
                        per_partition_active: vec![3, 0],
                    },
                },
            },
            "74000000018400000200000000000000010000000500000000000000010000000a00000000000000\
             0c000000000000000300000000000000040000000000000005000000000000000600000000000000\
             0100000000000000070000000000000008000000000000000200000003000000000000000000000000000000",
        ),
        (
            Frame::StatsReply(ServerStats {
                generation: 1,
                reloads: 2,
                live_streams: 3,
                connections: 4,
                streams_served: 5,
            }),
            "2800000001850000010000000000000002000000000000000300000000000000040000000000000005\
             00000000000000",
        ),
        (Frame::ReloadOk { generation: 17 }, "08000000018600001100000000000000"),
        (Frame::CacheFound { artifact: vec![0xca, 0xfe] }, "0200000001870000cafe"),
        (Frame::CacheMiss, "0000000001880000"),
        (Frame::CachePutOk, "0000000001890000"),
        (
            Frame::CacheStatsReply(CacheServerStats {
                hits: 1,
                misses: 2,
                puts: 3,
                rejected: 4,
                bytes_served: 5,
                bytes_stored: 6,
                entries: 7,
                disk_bytes: 8,
            }),
            "40000000018a00000100000000000000020000000000000003000000000000000400000000000000\
             0500000000000000060000000000000007000000000000000800000000000000",
        ),
        (Frame::Error { code: 9, message: "no".into() }, "0400000001ee000009006e6f"),
    ]
}

#[test]
fn every_frame_kind_encodes_to_its_pinned_bytes() {
    let frames = pinned_frames();
    let kinds: std::collections::BTreeSet<u8> =
        frames.iter().map(|(f, _)| f.encode().unwrap()[5]).collect();
    assert_eq!(kinds.len(), 20, "one frame of each kind");
    for (frame, pinned) in frames {
        let bytes = frame.encode().expect("in-bounds frame");
        assert_eq!(hex(&bytes), pinned, "{frame:?}");
        let (back, used) = Frame::decode(&bytes).unwrap().expect("complete frame");
        assert_eq!((back, used), (frame, bytes.len()));
    }
}

/// Length, FNV-1a 64 of the whole blob, and the 24 header bytes.
type BlobPin = (usize, u64, &'static str);

/// The CAAR and CAPR encodings of the two-pattern program below, per design.
const ARTIFACT_PINS: [(Design, BlobPin, BlobPin); 2] = [
    (
        Design::Performance,
        (678, 0xd0fc_b899_1e0b_4e4e, "4341415201000000ee07872e92234ee78e02000000000000"),
        (834, 0x6f9c_6d67_9bce_375c, "434150520100000083f25fcc162797272a03000000000000"),
    ),
    (
        Design::Space,
        (678, 0x7f6f_4bc8_9ab4_80ba, "434141520100010011d3f00ea9aa2cc38e02000000000000"),
        (834, 0x9341_7425_c90c_4c82, "4341505201000000c36186a064976a5c2a03000000000000"),
    ),
];

#[test]
fn artifact_containers_encode_to_their_pinned_bytes() {
    for (design, caar_pin, capr_pin) in ARTIFACT_PINS {
        let ca = CacheAutomaton::builder().design(design).no_disk_cache().no_remote_cache().build();
        let program = ca.compile_patterns(&["rain", "sp[ai]n"]).unwrap();
        let caar = program.compiled().bitstream.encode();
        let capr = program.to_bytes();
        for (name, blob, pin) in [("CAAR", &caar, caar_pin), ("CAPR", &capr, capr_pin)] {
            let got = (blob.len(), fnv1a_64(blob), hex(&blob[..24]));
            assert_eq!((got.0, got.1, got.2.as_str()), pin, "{name} {design:?}");
            // the header's own fields: checksum of the payload, payload length
            assert_eq!(blob[8..16], fnv1a_64(&blob[24..]).to_le_bytes());
            assert_eq!(blob[16..24], ((blob.len() - 24) as u64).to_le_bytes());
        }
        // what was written still loads, and re-encodes to the same bytes
        let loaded = cache_automaton::Program::from_bytes(&capr).unwrap();
        assert_eq!(loaded.to_bytes(), capr);
    }
}
