//! Property-based tests of the `.mtr` binary trace format: lossless
//! round-trips for arbitrary address streams at arbitrary block sizes,
//! deterministic encoding, and rejection of truncated or bit-flipped
//! files.  Every payload byte is CRC-guarded and every record count is
//! cross-checked, so *any* single-byte corruption must surface as a
//! typed [`TraceError`], never as silently wrong addresses.

use memhier_trace::{TraceError, TraceReader, TraceWriter};
use proptest::prelude::*;
use std::io::Cursor;

/// Encode `addrs` into an in-memory `.mtr` image.
fn encode(addrs: &[u64], block_payload: usize, granularity: u64, ti: u64) -> Vec<u8> {
    let mut cur = Cursor::new(Vec::new());
    {
        let mut w = TraceWriter::new(&mut cur, granularity)
            .unwrap()
            .with_block_payload(block_payload);
        for &a in addrs {
            w.record(a).unwrap();
        }
        w.finish(ti).unwrap();
    }
    cur.into_inner()
}

/// Decode every record, panicking on any mid-stream error.
fn decode(bytes: &[u8]) -> Vec<u64> {
    TraceReader::new(Cursor::new(bytes))
        .unwrap()
        .map(|r| r.unwrap())
        .collect()
}

/// Drain a reader until clean EOF or the first error, returning the
/// records seen and whether an error occurred.
fn drain(bytes: &[u8]) -> (Vec<u64>, Option<TraceError>) {
    let mut reader = match TraceReader::new(Cursor::new(bytes)) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut seen = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(a)) => seen.push(a),
            Ok(None) => return (seen, None),
            Err(e) => return (seen, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_is_lossless_at_any_block_size(
        addrs in proptest::collection::vec(0u64..u64::MAX, 0..2000),
        block_payload in 10usize..4096,
        ti in 0u64..1_000_000,
    ) {
        let bytes = encode(&addrs, block_payload, 64, ti);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(reader.header().record_count, addrs.len() as u64);
        prop_assert_eq!(reader.header().total_instructions, ti);
        prop_assert_eq!(reader.header().granularity, 64);
        prop_assert_eq!(decode(&bytes), addrs);
    }

    #[test]
    fn encoding_is_deterministic(
        addrs in proptest::collection::vec(0u64..u64::MAX, 0..800),
        block_payload in 10usize..1024,
    ) {
        let a = encode(&addrs, block_payload, 1, 7);
        let b = encode(&addrs, block_payload, 1, 7);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn block_size_never_changes_decoded_records(
        addrs in proptest::collection::vec(0u64..u64::MAX, 1..600),
    ) {
        // The block layout is a transport detail; the record stream is
        // identical whether one block holds the trace or dozens do.
        let whole = decode(&encode(&addrs, 1 << 20, 1, 0));
        for payload in [10usize, 64, 700] {
            prop_assert_eq!(&decode(&encode(&addrs, payload, 1, 0)), &whole);
        }
        prop_assert_eq!(whole, addrs);
    }

    #[test]
    fn truncation_anywhere_is_rejected(
        addrs in proptest::collection::vec(0u64..u64::MAX, 1..400),
        block_payload in 10usize..256,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode(&addrs, block_payload, 1, 9);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let (seen, err) = drain(&bytes[..cut]);
        prop_assert!(
            err.is_some(),
            "cut at {cut}/{} decoded cleanly: {} records",
            bytes.len(),
            seen.len()
        );
        // Whatever was decoded before the error is a true prefix.
        prop_assert!(seen.len() <= addrs.len());
        prop_assert_eq!(&seen[..], &addrs[..seen.len()]);
    }

    #[test]
    fn single_byte_corruption_is_rejected(
        addrs in proptest::collection::vec(0u64..u64::MAX, 1..400),
        block_payload in 10usize..256,
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let mut bytes = encode(&addrs, block_payload, 1, 9);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip as u8;
        let (seen, err) = drain(&bytes);
        prop_assert!(
            err.is_some(),
            "flipping byte {pos} with {flip:#04x} went unnoticed \
             ({} records decoded)",
            seen.len()
        );
        // Records decoded before the corrupted block are untouched.
        prop_assert!(seen.len() <= addrs.len());
        prop_assert_eq!(&seen[..], &addrs[..seen.len()]);
    }
}

/// The first block header's `len` (bytes 36..40) and `count` (40..44)
/// fields sit outside the block checksum.  Corrupting any of their bytes
/// must still give a typed error, and must never size an allocation from
/// the corrupt value: the high count byte XOR 0x7f once made the reader
/// ask for 17 GB and abort the process.
#[test]
fn corrupt_block_length_and_count_are_typed_errors() {
    let addrs: Vec<u64> = (0..50_000u64).map(|i| i * 64 % 1_000_003).collect();
    let bytes = encode(&addrs, memhier_trace::format::DEFAULT_BLOCK_PAYLOAD, 1, 9);
    for pos in 36..44 {
        for mask in [0x01u8, 0x10, 0x7f, 0x80, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= mask;
            let (seen, err) = drain(&corrupt);
            assert!(
                err.is_some(),
                "byte {pos} ^ {mask:#04x} went unnoticed ({} records decoded)",
                seen.len()
            );
            assert!(seen.is_empty(), "byte {pos} ^ {mask:#04x} leaked records");
        }
    }
    let mut corrupt = bytes.clone();
    corrupt[43] ^= 0x7f;
    assert!(
        matches!(drain(&corrupt).1, Some(TraceError::Invalid("block", _))),
        "an implausible record count is an invalid block"
    );
}
