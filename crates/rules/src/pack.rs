//! The `.crpack` on-disk format: a versioned, checksummed container
//! holding a validated [`RuleSet`] plus every rule's precompiled ORDER
//! artefact.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            4 bytes   "CRPK"
//! format version   u32       PACK_VERSION
//! total length     u64       byte length of the whole file, checksum
//!                            included
//! pack name        u32-length-prefixed UTF-8 ([`PackManifest::name`])
//! pack version     u32       ([`PackManifest::version`])
//! rule count       u32
//! rules            rule count × crysl::binfmt rule encoding
//! artefact count   u32
//! artefacts        artefact count × statemachine::serial encoding,
//!                  one per distinct order_fingerprint, ascending
//! checksum         u64       FNV-1a-64 over every preceding byte,
//!                            folded 8 bytes at a time ([`pack_checksum`])
//! ```
//!
//! Decoding verifies the checksum before any structural read, so a
//! bit flip anywhere surfaces as one typed error (on a mismatch, a file
//! shorter than its declared total length is reported as truncated,
//! any other as corrupted in place), re-validates every
//! decoded rule with the same pass the parser runs, and enforces the
//! seeding invariant: the artefact fingerprint set must equal the rule
//! fingerprint set, so a decoded pack always pre-seeds the
//! [`statemachine::OrderCache`] with exactly the artefacts its rules
//! will look up — a pack-booted engine can never compile.

use std::collections::BTreeMap;

use crysl::binfmt::{Reader, Writer};
use crysl::{validate, CryslError, RuleSet};
use statemachine::serial::{read_compiled_order, write_compiled_order};
use statemachine::{order_fingerprint, CompiledOrder};

/// File magic of a compiled rule pack.
pub const PACK_MAGIC: [u8; 4] = *b"CRPK";

/// Current pack format version. Bump on any layout change; a loader
/// only accepts its own version, so stale packs fail fast with a typed
/// error telling the operator to recompile. Version 2 added the pack
/// manifest (name + pack version) between the format version and the
/// rule table; version 3 added the total length after the format
/// version, so a cut file is told from one corrupted in place.
pub const PACK_VERSION: u32 = 3;

/// Offset of the total-length field.
const LENGTH_AT: usize = 8;

/// Smallest byte count any structurally plausible pack can have: the
/// magic, format version and total length, an empty manifest, two zero
/// counts and the checksum.
const MIN_PACK_BYTES: usize = 4 + 4 + 8 + 4 + 4 + 4 + 4 + 8;

/// The pack manifest: which named catalog pack (at which rule-set
/// version) the file was compiled from. Distinct from the *format*
/// version ([`PACK_VERSION`]), which describes the byte layout: two
/// packs `jca@v1` and `jca@v2` both use format version 2 but carry
/// manifests `("jca", 1)` and `("jca", 2)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackManifest {
    /// Catalog pack name (e.g. `"jca"`); ad-hoc source-dir compiles
    /// use the directory stem.
    pub name: String,
    /// Rule-set version within the named pack line.
    pub version: u32,
}

impl PackManifest {
    /// Creates a manifest.
    pub fn new(name: impl Into<String>, version: u32) -> Self {
        PackManifest {
            name: name.into(),
            version,
        }
    }
}

impl std::fmt::Display for PackManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@v{}", self.name, self.version)
    }
}

/// The pack trailer checksum: FNV-1a-64 folding 8-byte little-endian
/// words, then the remaining tail bytes one at a time.
///
/// Word-wise folding does one xor/multiply per 8 bytes instead of per
/// byte, which matters because decoding hashes the whole file before
/// any structural read — the checksum is on every cold-start path. It
/// is a different function from the byte-wise
/// [`statemachine::compile::fnv1a_64`]; the pack format has used the
/// word-folded variant since [`PACK_VERSION`] 1.
pub fn pack_checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8-byte words"));
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes a rule set plus freshly compiled ORDER artefacts into
/// the `.crpack` byte format.
///
/// # Errors
///
/// [`CryslError::Pack`] when a rule's ORDER fails to compile (state
/// blow-up past the DFA limit or path-enumeration failure).
pub fn encode(rules: &RuleSet, manifest: &PackManifest) -> Result<Vec<u8>, CryslError> {
    let mut artefacts: BTreeMap<u64, CompiledOrder> = BTreeMap::new();
    for rule in rules.iter() {
        let fp = order_fingerprint(rule);
        if let std::collections::btree_map::Entry::Vacant(slot) = artefacts.entry(fp) {
            let artefact = CompiledOrder::compile(rule).map_err(|e| {
                CryslError::pack(format!("compiling ORDER of {}: {e}", rule.class_name))
            })?;
            slot.insert(artefact);
        }
    }
    Ok(write_pack(rules, manifest, artefacts.values()))
}

/// Lays out a pack: header, manifest, rules, artefacts, then the total
/// length is filled in and the checksum appended.
fn write_pack<'a>(
    rules: &RuleSet,
    manifest: &PackManifest,
    artefacts: impl ExactSizeIterator<Item = &'a CompiledOrder>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&PACK_MAGIC);
    w.u32(PACK_VERSION);
    w.u64(0);
    w.str(&manifest.name);
    w.u32(manifest.version);
    w.count(rules.len());
    for rule in rules.iter() {
        crysl::binfmt::write_rule(&mut w, rule);
    }
    w.count(artefacts.len());
    for artefact in artefacts {
        write_compiled_order(&mut w, artefact);
    }
    let mut bytes = w.into_bytes();
    let total = bytes.len() as u64 + 8;
    bytes[LENGTH_AT..LENGTH_AT + 8].copy_from_slice(&total.to_le_bytes());
    let checksum = pack_checksum(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// A successfully decoded pack: the re-validated rules, the format
/// version the file declared, and the precompiled artefacts destined
/// for the [`statemachine::OrderCache`].
#[derive(Debug, Clone)]
pub struct DecodedPack {
    /// Decoded and re-validated rules.
    pub rules: RuleSet,
    /// Format version read from the file (always [`PACK_VERSION`]).
    pub version: u32,
    /// Manifest read from the file.
    pub manifest: PackManifest,
    /// One artefact per distinct rule fingerprint.
    pub artefacts: Vec<CompiledOrder>,
}

/// Decodes and fully verifies `.crpack` bytes.
///
/// # Errors
///
/// [`CryslError::Pack`] on truncation, bad magic, an unsupported
/// version, a checksum mismatch, structural corruption, or an
/// artefact/rule fingerprint mismatch; [`CryslError::Validate`] when a
/// decoded rule fails re-validation. Never panics on hostile input.
pub fn decode(bytes: &[u8]) -> Result<DecodedPack, CryslError> {
    if bytes.len() < MIN_PACK_BYTES {
        let magic = &bytes[..bytes.len().min(4)];
        if !PACK_MAGIC.starts_with(magic) {
            return Err(bad_magic(magic));
        }
        return Err(CryslError::pack(format!(
            "truncated pack: the file ends at byte {}, short of the {MIN_PACK_BYTES}-byte minimum",
            bytes.len()
        )));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(trailer.try_into().expect("split_at leaves 8 bytes"));
    let actual = pack_checksum(payload);
    if declared != actual {
        // A cut file has no trailer: its last 8 bytes are pack content.
        // Its header still declares the length it had.
        let length = &bytes[LENGTH_AT..LENGTH_AT + 8];
        let total = u64::from_le_bytes(length.try_into().expect("an 8-byte slice"));
        if (bytes.len() as u64) < total {
            return Err(CryslError::pack(format!(
                "truncated pack: the file ends at byte {}, its header declares {total} bytes",
                bytes.len()
            )));
        }
        return Err(CryslError::pack(format!(
            "checksum mismatch: file declares {declared:#018x}, content hashes to {actual:#018x}"
        )));
    }

    let mut r = Reader::new(payload);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8()?;
    }
    if magic != PACK_MAGIC {
        return Err(bad_magic(&magic));
    }
    let version = r.u32()?;
    if version != PACK_VERSION {
        return Err(CryslError::pack(format!(
            "unsupported pack format version {version} (this build reads {PACK_VERSION}); recompile the pack"
        )));
    }
    let total = r.u64()?;
    if total != bytes.len() as u64 {
        return Err(CryslError::pack(format!(
            "the header declares {total} bytes, the file has {}",
            bytes.len()
        )));
    }

    let manifest = PackManifest {
        name: r.str()?,
        version: r.u32()?,
    };

    let rule_count = r.count()?;
    let mut rules = RuleSet::new();
    for _ in 0..rule_count {
        let rule = crysl::binfmt::read_rule(&mut r)?;
        // Defense in depth: the checksum proves integrity, not honesty.
        // A well-formed pack built from a malicious writer must still
        // satisfy every invariant the parser enforces.
        validate::validate(&rule)?;
        rules.add(rule)?;
    }

    let artefact_count = r.count()?;
    let mut artefacts = Vec::with_capacity(artefact_count);
    for _ in 0..artefact_count {
        artefacts.push(read_compiled_order(&mut r)?);
    }
    r.expect_end()?;

    let mut rule_fps: Vec<u64> = rules.iter().map(order_fingerprint).collect();
    rule_fps.sort_unstable();
    rule_fps.dedup();
    let artefact_fps: Vec<u64> = artefacts.iter().map(|a| a.fingerprint).collect();
    if artefact_fps != rule_fps {
        return Err(CryslError::pack(format!(
            "artefact fingerprints do not match the rule set ({} artefacts vs {} distinct rule orders): the pack cannot guarantee an all-hit cold start",
            artefact_fps.len(),
            rule_fps.len()
        )));
    }

    Ok(DecodedPack {
        rules,
        version,
        manifest,
        artefacts,
    })
}

fn bad_magic(magic: &[u8]) -> CryslError {
    CryslError::pack(format!("bad magic {magic:?}: not a compiled rule pack"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> PackManifest {
        PackManifest::new("test", 1)
    }

    fn embedded() -> RuleSet {
        let mut set = RuleSet::new();
        for (_, src) in crate::RULE_SOURCES {
            set.add_source(src).unwrap();
        }
        set
    }

    #[test]
    fn encode_decode_is_the_identity_on_the_embedded_set() {
        let rules = embedded();
        let bytes = encode(&rules, &manifest()).unwrap();
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.version, PACK_VERSION);
        assert_eq!(decoded.manifest, manifest());
        assert_eq!(decoded.rules, rules);
        assert_eq!(decoded.artefacts.len(), {
            let mut fps: Vec<u64> = rules.iter().map(order_fingerprint).collect();
            fps.sort_unstable();
            fps.dedup();
            fps.len()
        });
        // Every artefact matches a from-scratch compile of its rule.
        for rule in rules.iter() {
            let fresh = CompiledOrder::compile(rule).unwrap();
            let stored = decoded
                .artefacts
                .iter()
                .find(|a| a.fingerprint == fresh.fingerprint)
                .expect("artefact present");
            assert_eq!(*stored, fresh, "{}", rule.class_name);
        }
    }

    #[test]
    fn checksum_catches_any_single_bit_flip() {
        let bytes = encode(&embedded(), &manifest()).unwrap();
        // Sampled offsets (every byte would be slow at ~50KB × O(n)
        // re-hash per flip); stride covers header, rules, artefacts and
        // trailer regions.
        let mut corrupted = bytes.clone();
        for offset in (0..bytes.len()).step_by(211) {
            corrupted[offset] ^= 0x01;
            let err = decode(&corrupted).unwrap_err();
            assert!(
                matches!(err, CryslError::Pack { .. }),
                "offset {offset}: {err}"
            );
            // A flip in place is not mistaken for a cut file.
            assert!(
                err.to_string().contains("checksum mismatch"),
                "offset {offset}: {err}"
            );
            corrupted[offset] = bytes[offset];
        }
        // Flipping a bit in the checksum itself is also caught.
        let last = bytes.len() - 1;
        corrupted[last] ^= 0x80;
        assert!(decode(&corrupted).is_err());
    }

    #[test]
    fn truncation_is_always_a_typed_error() {
        let bytes = encode(&embedded(), &manifest()).unwrap();
        for end in [
            0,
            1,
            7,
            MIN_PACK_BYTES - 1,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let err = decode(&bytes[..end]).unwrap_err().to_string();
            assert!(
                err.contains(&format!("truncated pack: the file ends at byte {end}")),
                "end {end}: {err}"
            );
        }
        assert!(decode(b"PNG")
            .unwrap_err()
            .to_string()
            .contains("bad magic"));
    }

    /// What `compile-rules --embedded` writes: every cut of it reports
    /// truncation, and no in-place bit flip outside the length field
    /// does.
    #[test]
    fn cuts_read_as_truncation_and_flips_as_corruption() {
        let bytes = crate::open_uncached(crate::PackSource::Embedded)
            .unwrap()
            .to_bytes()
            .unwrap();
        let length_field = LENGTH_AT..LENGTH_AT + 8;
        let mut corrupted = bytes.clone();
        for offset in (0..bytes.len()).step_by(37) {
            let err = decode(&bytes[..offset]).unwrap_err().to_string();
            assert!(err.contains("truncated pack"), "cut at {offset}: {err}");
            for mask in [0x01, 0x10, 0x80] {
                corrupted[offset] ^= mask;
                let err = decode(&corrupted).unwrap_err().to_string();
                assert!(
                    length_field.contains(&offset) || !err.contains("truncated"),
                    "flip {mask:#04x} at {offset}: {err}"
                );
                corrupted[offset] = bytes[offset];
            }
        }
    }

    #[test]
    fn version_skew_is_rejected_with_a_recompile_hint() {
        let mut bytes = encode(&embedded(), &manifest()).unwrap();
        bytes[4..8].copy_from_slice(&(PACK_VERSION + 1).to_le_bytes());
        let len = bytes.len();
        let checksum = pack_checksum(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("recompile"), "{err}");
    }

    #[test]
    fn missing_artefact_violates_the_all_hit_invariant() {
        // Re-encode with one artefact dropped (and a fixed-up checksum):
        // structurally valid, but it can no longer guarantee a zero-
        // compile boot, so it must be rejected.
        let rules = embedded();
        let mut artefacts: Vec<CompiledOrder> = {
            let mut by_fp = BTreeMap::new();
            for rule in rules.iter() {
                by_fp
                    .entry(order_fingerprint(rule))
                    .or_insert_with(|| CompiledOrder::compile(rule).unwrap());
            }
            by_fp.into_values().collect()
        };
        artefacts.pop();
        let bytes = write_pack(&rules, &manifest(), artefacts.iter());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("all-hit"), "{err}");
    }
}
