//! Hostile-byte tests for the checkpoint reader.
//!
//! A checkpoint file is input from outside the program: a disk that tore
//! it, rotted it, or an operator who restored the wrong thing. Whatever
//! the bytes, `StreamCheckpoint::from_bytes` must answer with an error or
//! with a checkpoint that *is* those bytes — never a panic, never an
//! allocation out of proportion to the input, never a quietly different
//! state. Mutations start from the two golden files under `fixtures/`.
//!
//! Damage the footer cannot see — a body changed and then given a fresh,
//! correct length and CRC — is the decoder's to catch: a version-4 body is
//! accepted only in its one canonical spelling, so whatever decodes must
//! encode back to the very bytes that were read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use logdiver_stream::{ResumeError, StreamCheckpoint};
use proptest::prelude::*;

/// Counts live and peak heap bytes per thread, so concurrently running
/// tests do not see each other's allocations.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// touches only const-initialised thread-locals without destructors, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size());
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns the most heap it held at once, beyond what was
/// live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK.with(Cell::get) - before)
}

/// In-memory state is larger than its encoding (a run is ~35 bytes on
/// disk and ~130 in memory; a JSON `0,` becomes a 32-byte tree node), so
/// "proportional" means a fixed multiple. A length prefix trusted before
/// checking would blow through any multiple.
const HEAP_PER_INPUT_BYTE: usize = 16;
const HEAP_SLACK: usize = 4096;

fn fixture(version: u32) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("v{version}_small.ckpt"));
    std::fs::read(path).expect("fixture")
}

/// Bit-at-a-time CRC-32: the test's own, so re-footering does not lean on
/// the table-driven kernel under test.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// The body of a checkpoint file (through the newline before the footer).
fn body_of(file: &[u8]) -> &[u8] {
    let end = file[..file.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("footer line");
    &file[..=end]
}

/// `body` under a correct footer of the given version.
fn refooter(body: &[u8], version: u32) -> Vec<u8> {
    let mut file = body.to_vec();
    let footer = format!(
        "#logdiver-ckpt v{version} len={} crc={:08x}\n",
        body.len(),
        crc32(body)
    );
    file.extend_from_slice(footer.as_bytes());
    file
}

/// The contract, for one hostile input.
///
/// `version` is what a *valid* reading would be: version-4 input must
/// round-trip byte for byte; version-3 input is rewritten as version 4, so
/// there the check is that the upgrade is stable.
fn check(input: &[u8], version: u32) -> Result<(), TestCaseError> {
    let (result, peak) = peak_heap(|| StreamCheckpoint::from_bytes(input));
    prop_assert!(
        peak <= HEAP_PER_INPUT_BYTE * input.len() + HEAP_SLACK,
        "{peak} heap bytes for {} input bytes",
        input.len()
    );
    match result {
        Err(ResumeError::Corrupt(_) | ResumeError::Version(_) | ResumeError::Malformed(_)) => {}
        Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        Ok(ckpt) => {
            let again = ckpt.to_bytes();
            if version == 4 {
                prop_assert!(again == input, "accepted bytes that are not canonical");
            } else {
                let stable = StreamCheckpoint::from_bytes(&again) == Ok(ckpt);
                prop_assert!(stable, "upgraded checkpoint does not read back as itself");
            }
        }
    }
    Ok(())
}

/// As [`check`], for damage the footer must catch on its own.
fn check_rejected(input: &[u8], original: &[u8], version: u32) -> Result<(), TestCaseError> {
    check(input, version)?;
    if input != original {
        prop_assert!(
            StreamCheckpoint::from_bytes(input).is_err(),
            "damaged file was accepted"
        );
    }
    Ok(())
}

/// Applies byte-level edits: `(kind, position, value)` with `kind` 0 =
/// overwrite, 1 = insert, 2 = delete, 3 = cut the rest off.
fn mutate(body: &[u8], edits: &[(u8, u32, u8)]) -> Vec<u8> {
    let mut out = body.to_vec();
    for &(kind, at, value) in edits {
        if out.is_empty() {
            break;
        }
        let at = at as usize % out.len();
        match kind % 4 {
            0 => out[at] = value,
            1 => out.insert(at, value),
            2 => {
                out.remove(at);
            }
            _ => out.truncate(at),
        }
    }
    out
}

#[test]
fn fixtures_are_valid_seeds() {
    for version in [3, 4] {
        let file = fixture(version);
        assert_eq!(StreamCheckpoint::file_version(&file), Some(version));
        assert_eq!(refooter(body_of(&file), version), file);
        check(&file, version).unwrap();
        assert!(StreamCheckpoint::from_bytes(&file).is_ok());
    }
}

#[test]
fn every_truncation_is_rejected() {
    for version in [3, 4] {
        let file = fixture(version);
        for cut in 0..file.len() {
            check_rejected(&file[..cut], &file, version).unwrap();
        }
    }
}

#[test]
fn every_single_bit_flip_in_a_v4_file_is_rejected() {
    let file = fixture(4);
    let mut flipped = file.clone();
    for at in 0..file.len() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            check_rejected(&flipped, &file, 4).unwrap();
            flipped[at] ^= 1 << bit;
        }
    }
}

/// Every body byte in turn replaced by a count, under a correct footer:
/// first 2^60, which must be refused from the count alone; then the
/// largest count the remaining bytes could hold as one-byte elements,
/// which passes that check and must still not be *reserved* as 130-byte
/// runs before the elements turn out not to be there.
#[test]
fn hostile_length_prefixes_cost_nothing() {
    let file = fixture(4);
    let body = body_of(&file);
    for at in 0..body.len() - 1 {
        // The reader sees the body without its newline.
        let behind = (body.len() - at - 2) as u64;
        for mut count in [1 << 60, behind] {
            let mut hostile = body[..at].to_vec();
            while count >= 0x80 {
                hostile.push(count as u8 | 0x80);
                count >>= 7;
            }
            hostile.push(count as u8);
            hostile.extend_from_slice(&body[at + 1..]);
            check(&refooter(&hostile, 4), 4).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn bit_flips_in_a_v3_file_are_rejected(at in any::<u32>(), bit in 0u8..8) {
        let file = fixture(3);
        let mut flipped = file.clone();
        flipped[at as usize % file.len()] ^= 1 << bit;
        check_rejected(&flipped, &file, 3)?;
    }

    /// The head of one valid file on the tail of another (or of itself,
    /// shifted): lengths and CRCs no longer agree.
    #[test]
    fn spliced_files_are_rejected(
        head in 3u32..5, tail in 3u32..5, cut_head in any::<u32>(), cut_tail in any::<u32>(),
    ) {
        let (a, b) = (fixture(head), fixture(tail));
        let mut spliced = a[..cut_head as usize % (a.len() + 1)].to_vec();
        spliced.extend_from_slice(&b[cut_tail as usize % (b.len() + 1)..]);
        // Cutting at the very ends gives back one of the files whole.
        let (original, version) = if spliced == a { (a, head) } else { (b, tail) };
        check_rejected(&spliced, &original, version)?;
    }

    /// The footer vouches for these, so only the decoder stands between
    /// the edit and the engine.
    #[test]
    fn edited_v4_bodies_under_a_correct_footer_decode_canonically_or_not_at_all(
        edits in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..6),
    ) {
        let file = fixture(4);
        let mut body = mutate(body_of(&file), &edits);
        if body.last() != Some(&b'\n') {
            body.push(b'\n');
        }
        check(&refooter(&body, 4), 4)?;
    }

    #[test]
    fn edited_v3_bodies_under_a_correct_footer_upgrade_stably_or_not_at_all(
        edits in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..6),
    ) {
        let file = fixture(3);
        let mut body = mutate(body_of(&file), &edits);
        if body.last() != Some(&b'\n') {
            body.push(b'\n');
        }
        check(&refooter(&body, 3), 3)?;
    }

    /// A body of one version under the other's footer, and pure noise
    /// under either.
    #[test]
    fn wrong_version_footers_and_noise_are_rejected(
        noise in proptest::collection::vec(any::<u8>(), 0..300), version in 0u32..7,
    ) {
        let mut body = noise;
        body.push(b'\n');
        check(&refooter(&body, version), version)?;
        check(&refooter(body_of(&fixture(3)), 4), 4)?;
        check(&refooter(body_of(&fixture(4)), 3), 3)?;
    }
}
