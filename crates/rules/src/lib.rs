//! The JCA CrySL rule sets shipped with this reproduction, behind one
//! unified loading API.
//!
//! Sixteen rules cover every class the catalogued use cases touch.
//! They are adaptations of the publicly maintained CrySL rules for the
//! Java Cryptography Architecture, rewritten in this crate's CrySL dialect
//! and tuned as the paper describes (§4): `in`-constraint literals ordered
//! by generation preference, predicate first arguments holding operation
//! results, and `instanceof` constraints distinguishing symmetric from
//! asymmetric Cipher usage.
//!
//! The rules are organized as *versioned packs* ([`PACK_CATALOG`]): the
//! full `jca` line (whose latest version is what [`PackSource::Embedded`]
//! serves) plus focused subsets (`aead`, `agreement`, `token`) that carry
//! only the rules their use-case families need. `jca@v1` is the legacy
//! rule set kept for versioning coverage — it still prefers 1024-bit RSA
//! keys, which `jca@v2` raised to 2048.
//!
//! Every way to load rules goes through [`open`] with a [`PackSource`]:
//! the embedded JCA set, a named catalog pack (`jca@v1`, `aead`, …), a
//! directory of `*.crysl` sources, or a precompiled `.crpack` binary
//! produced by `cognicryptgen compile-rules`. All four return the same
//! [`RulePack`] handle; a compiled pack additionally carries every
//! rule's precompiled ORDER artefact, so [`RulePack::seed`] can
//! pre-fill an [`statemachine::OrderCache`] and a cold boot compiles
//! nothing.
//!
//! # Example
//!
//! ```
//! let pack = rules::open(rules::PackSource::Embedded)?;
//! assert!(pack.rules.by_name("javax.crypto.Cipher").is_some());
//! assert_eq!(pack.rules.len(), 16);
//! assert_eq!(pack.fingerprints.len(), 16);
//! assert_eq!(pack.manifest.to_string(), "jca@v2");
//! # Ok::<(), rules::PackError>(())
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use crysl::{CryslError, RuleSet};
use statemachine::compile::fnv1a_64;
use statemachine::{order_fingerprint, CompiledOrder, OrderCache};

mod pack;

pub use pack::{pack_checksum, PackManifest, PACK_MAGIC, PACK_VERSION};

const SRC_SECURE_RANDOM: (&str, &str) = ("SecureRandom", include_str!("../jca/SecureRandom.crysl"));
const SRC_PBE_KEY_SPEC: (&str, &str) = ("PBEKeySpec", include_str!("../jca/PBEKeySpec.crysl"));
const SRC_SECRET_KEY_FACTORY: (&str, &str) = (
    "SecretKeyFactory",
    include_str!("../jca/SecretKeyFactory.crysl"),
);
const SRC_SECRET_KEY: (&str, &str) = ("SecretKey", include_str!("../jca/SecretKey.crysl"));
const SRC_SECRET_KEY_SPEC: (&str, &str) =
    ("SecretKeySpec", include_str!("../jca/SecretKeySpec.crysl"));
const SRC_KEY_GENERATOR: (&str, &str) = ("KeyGenerator", include_str!("../jca/KeyGenerator.crysl"));
const SRC_CIPHER: (&str, &str) = ("Cipher", include_str!("../jca/Cipher.crysl"));
const SRC_IV_PARAMETER_SPEC: (&str, &str) = (
    "IvParameterSpec",
    include_str!("../jca/IvParameterSpec.crysl"),
);
const SRC_GCM_PARAMETER_SPEC: (&str, &str) = (
    "GCMParameterSpec",
    include_str!("../jca/GCMParameterSpec.crysl"),
);
const SRC_MESSAGE_DIGEST: (&str, &str) =
    ("MessageDigest", include_str!("../jca/MessageDigest.crysl"));
const SRC_SIGNATURE: (&str, &str) = ("Signature", include_str!("../jca/Signature.crysl"));
const SRC_KEY_PAIR_GENERATOR: (&str, &str) = (
    "KeyPairGenerator",
    include_str!("../jca/KeyPairGenerator.crysl"),
);
const SRC_KEY_PAIR: (&str, &str) = ("KeyPair", include_str!("../jca/KeyPair.crysl"));
const SRC_MAC: (&str, &str) = ("Mac", include_str!("../jca/Mac.crysl"));
const SRC_KEY_AGREEMENT: (&str, &str) = ("KeyAgreement", include_str!("../jca/KeyAgreement.crysl"));
const SRC_KDF: (&str, &str) = ("KDF", include_str!("../jca/KDF.crysl"));

/// The legacy (v1) KeyPairGenerator rule: 1024-bit RSA minimum.
const SRC_KEY_PAIR_GENERATOR_V1: (&str, &str) = (
    "KeyPairGenerator",
    include_str!("../jca_v1/KeyPairGenerator.crysl"),
);

/// Name and source text of every shipped rule — the `jca` pack at its
/// latest version, which is also what [`PackSource::Embedded`] serves.
pub const RULE_SOURCES: &[(&str, &str)] = &[
    SRC_SECURE_RANDOM,
    SRC_PBE_KEY_SPEC,
    SRC_SECRET_KEY_FACTORY,
    SRC_SECRET_KEY,
    SRC_SECRET_KEY_SPEC,
    SRC_KEY_GENERATOR,
    SRC_CIPHER,
    SRC_IV_PARAMETER_SPEC,
    SRC_GCM_PARAMETER_SPEC,
    SRC_MESSAGE_DIGEST,
    SRC_SIGNATURE,
    SRC_KEY_PAIR_GENERATOR,
    SRC_KEY_PAIR,
    SRC_MAC,
    SRC_KEY_AGREEMENT,
    SRC_KDF,
];

/// `jca@v1`: the same class coverage with the legacy KeyPairGenerator
/// rule (1024-bit RSA preference).
const JCA_V1_RULE_SOURCES: &[(&str, &str)] = &[
    SRC_SECURE_RANDOM,
    SRC_PBE_KEY_SPEC,
    SRC_SECRET_KEY_FACTORY,
    SRC_SECRET_KEY,
    SRC_SECRET_KEY_SPEC,
    SRC_KEY_GENERATOR,
    SRC_CIPHER,
    SRC_IV_PARAMETER_SPEC,
    SRC_GCM_PARAMETER_SPEC,
    SRC_MESSAGE_DIGEST,
    SRC_SIGNATURE,
    SRC_KEY_PAIR_GENERATOR_V1,
    SRC_KEY_PAIR,
    SRC_MAC,
    SRC_KEY_AGREEMENT,
    SRC_KDF,
];

/// `aead@v1`: the authenticated-encryption family.
const AEAD_V1_RULE_SOURCES: &[(&str, &str)] = &[
    SRC_SECURE_RANDOM,
    SRC_SECRET_KEY,
    SRC_SECRET_KEY_SPEC,
    SRC_KEY_GENERATOR,
    SRC_CIPHER,
    SRC_IV_PARAMETER_SPEC,
    SRC_GCM_PARAMETER_SPEC,
];

/// `agreement@v1`: the key-agreement family (DH/ECDH → KDF → AEAD/MAC).
const AGREEMENT_V1_RULE_SOURCES: &[(&str, &str)] = &[
    SRC_SECURE_RANDOM,
    SRC_SECRET_KEY_SPEC,
    SRC_CIPHER,
    SRC_IV_PARAMETER_SPEC,
    SRC_GCM_PARAMETER_SPEC,
    SRC_KEY_PAIR_GENERATOR,
    SRC_KEY_PAIR,
    SRC_MAC,
    SRC_KEY_AGREEMENT,
    SRC_KDF,
];

/// `token@v1`: the MAC/HKDF token family.
const TOKEN_V1_RULE_SOURCES: &[(&str, &str)] = &[
    SRC_SECURE_RANDOM,
    SRC_PBE_KEY_SPEC,
    SRC_SECRET_KEY_FACTORY,
    SRC_SECRET_KEY,
    SRC_SECRET_KEY_SPEC,
    SRC_KEY_GENERATOR,
    SRC_CIPHER,
    SRC_IV_PARAMETER_SPEC,
    SRC_MAC,
    SRC_KDF,
];

/// A named, versioned rule pack in the shipped catalog.
#[derive(Debug, Clone, Copy)]
pub struct PackSpec {
    /// Pack name (`jca`, `aead`, `agreement`, `token`).
    pub name: &'static str,
    /// Rule-set version within this pack line.
    pub version: u32,
    /// Name and source text of each member rule.
    pub rules: &'static [(&'static str, &'static str)],
    /// Catalogued use-case ids this pack can generate
    /// (`usecases::all_use_cases` numbering).
    pub use_cases: &'static [u8],
}

impl PackSpec {
    /// The manifest a compile of this spec carries.
    pub fn manifest(&self) -> PackManifest {
        PackManifest::new(self.name, self.version)
    }
}

/// Every named pack this build ships, all versions. Within one name,
/// entries are ordered ascending by version; the last one is the
/// latest.
pub const PACK_CATALOG: &[PackSpec] = &[
    PackSpec {
        name: "jca",
        version: 1,
        rules: JCA_V1_RULE_SOURCES,
        // The agreement family (17–21) needs DH/EC key pairs, which the
        // legacy RSA-only KeyPairGenerator rule cannot justify.
        use_cases: &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 22, 23, 24, 25, 26,
        ],
    },
    PackSpec {
        name: "jca",
        version: 2,
        rules: RULE_SOURCES,
        use_cases: &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
            25, 26,
        ],
    },
    PackSpec {
        name: "aead",
        version: 1,
        rules: AEAD_V1_RULE_SOURCES,
        use_cases: &[4, 12, 13, 14, 15, 16, 26],
    },
    PackSpec {
        name: "agreement",
        version: 1,
        rules: AGREEMENT_V1_RULE_SOURCES,
        use_cases: &[17, 18, 19, 20, 21],
    },
    PackSpec {
        name: "token",
        version: 1,
        rules: TOKEN_V1_RULE_SOURCES,
        use_cases: &[22, 23, 24, 25, 26],
    },
];

/// Looks up a catalog pack by name, at an explicit version or (with
/// `None`) the latest one.
pub fn catalog_pack(name: &str, version: Option<u32>) -> Option<&'static PackSpec> {
    match version {
        Some(v) => PACK_CATALOG
            .iter()
            .find(|p| p.name == name && p.version == v),
        None => PACK_CATALOG.iter().rfind(|p| p.name == name),
    }
}

/// The catalogued use-case ids a pack declares, when its `manifest`
/// names a shipped catalog entry; `None` — the full catalogue — for
/// packs outside the catalog (source dirs, foreign `.crpack`s). Every
/// surface that generates "all use cases" over a chosen pack narrows
/// its set through this one rule.
pub fn declared_use_cases(manifest: &PackManifest) -> Option<&'static [u8]> {
    catalog_pack(&manifest.name, Some(manifest.version)).map(|spec| spec.use_cases)
}

/// Where a rule pack comes from — the single argument of [`open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackSource {
    /// The sixteen JCA rules compiled into this binary
    /// ([`RULE_SOURCES`], the latest `jca` catalog version).
    Embedded,
    /// A named pack from [`PACK_CATALOG`], version-pinned. `version`
    /// `None` means the latest shipped version of that name.
    Catalog {
        /// Pack name (`jca`, `aead`, …).
        name: String,
        /// Pinned version, or `None` for the latest.
        version: Option<u32>,
    },
    /// A directory of `*.crysl` source files, read in file-name order.
    SourceDir(PathBuf),
    /// A precompiled `.crpack` binary written by [`RulePack::to_bytes`]
    /// (the `compile-rules` subcommand).
    Compiled(PathBuf),
}

impl PackSource {
    /// Classifies a `--rules` argument: an existing directory is a
    /// source pack; a non-path spelling of a catalog name (`jca`,
    /// `aead@v1`, …) is a catalog pack; anything else is treated as a
    /// compiled pack file (and will fail with a typed error if it is
    /// not). A version-suffixed catalog name is recognized even at an
    /// unknown version, so `jca@v9` fails at [`open`] with a typed
    /// unknown-version error instead of a confusing file-not-found.
    pub fn detect(path: impl Into<PathBuf>) -> PackSource {
        let path = path.into();
        if path.is_dir() {
            return PackSource::SourceDir(path);
        }
        if !path.exists() {
            if let Some(spec) = path.to_str().and_then(parse_catalog_spec) {
                return spec;
            }
        }
        PackSource::Compiled(path)
    }

    /// Stable short label for telemetry (`embedded`, `catalog`,
    /// `source-dir`, `compiled`).
    pub fn kind(&self) -> &'static str {
        match self {
            PackSource::Embedded => "embedded",
            PackSource::Catalog { .. } => "catalog",
            PackSource::SourceDir(_) => "source-dir",
            PackSource::Compiled(_) => "compiled",
        }
    }

    /// The filesystem path behind this source, if any.
    pub fn path(&self) -> Option<&Path> {
        match self {
            PackSource::Embedded | PackSource::Catalog { .. } => None,
            PackSource::SourceDir(p) | PackSource::Compiled(p) => Some(p),
        }
    }
}

/// Parses `name` or `name@vN` into a [`PackSource::Catalog`] when
/// `name` is a shipped catalog name. Returns `None` for anything that
/// does not look like a catalog reference (so paths keep failing as
/// paths).
fn parse_catalog_spec(s: &str) -> Option<PackSource> {
    let (name, version) = match s.split_once('@') {
        Some((name, v)) => {
            let v = v.strip_prefix('v')?.parse::<u32>().ok()?;
            (name, Some(v))
        }
        None => (s, None),
    };
    if PACK_CATALOG.iter().any(|p| p.name == name) {
        Some(PackSource::Catalog {
            name: name.to_owned(),
            version,
        })
    } else {
        None
    }
}

impl fmt::Display for PackSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackSource::Embedded => f.write_str("embedded"),
            PackSource::Catalog { name, version } => match version {
                Some(v) => write!(f, "catalog:{name}@v{v}"),
                None => write!(f, "catalog:{name}"),
            },
            PackSource::SourceDir(p) => write!(f, "source-dir:{}", p.display()),
            PackSource::Compiled(p) => write!(f, "compiled:{}", p.display()),
        }
    }
}

/// Everything [`open`] can fail with. The facade maps `Io` to its
/// I/O class (exit 5), `Invalid` to invalid-input (exit 6) and
/// `Crysl` — parse, validation and pack corruption alike — to the
/// rules class (exit 3).
#[derive(Debug)]
pub enum PackError {
    /// A filesystem read failed.
    Io {
        /// What was being read.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The source is structurally unusable (e.g. a directory with no
    /// `*.crysl` file).
    Invalid(String),
    /// Lexing, parsing, validation, or pack decoding failed.
    Crysl(CryslError),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            PackError::Invalid(msg) => f.write_str(msg),
            PackError::Crysl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PackError::Io { source, .. } => Some(source),
            PackError::Invalid(_) => None,
            PackError::Crysl(e) => Some(e),
        }
    }
}

impl From<CryslError> for PackError {
    fn from(e: CryslError) -> Self {
        PackError::Crysl(e)
    }
}

/// A loaded rule pack: the rules, their ORDER fingerprints, the pack
/// format version, and where it all came from. Returned by [`open`]
/// for every [`PackSource`]; only a [`PackSource::Compiled`] origin
/// carries precompiled artefacts (see [`RulePack::seed`]).
#[derive(Debug, Clone)]
pub struct RulePack {
    /// The parsed (or decoded) and validated rules.
    pub rules: RuleSet,
    /// [`order_fingerprint`] of every distinct rule ORDER, ascending.
    pub fingerprints: Vec<u64>,
    /// The `.crpack` format version this pack has (or would serialize
    /// to): always [`PACK_VERSION`] in this build.
    pub version: u32,
    /// Pack manifest: the named catalog line and rule-set version this
    /// pack belongs to. Ad-hoc source-dir packs carry their directory
    /// stem at version 0.
    pub manifest: PackManifest,
    /// The source this pack was opened from.
    pub origin: PackSource,
    /// Precompiled ORDER artefacts, one per fingerprint, already
    /// reference-counted so seeding a cache shares rather than deep-
    /// copies them. Empty unless the origin is a compiled pack.
    artefacts: Vec<Arc<CompiledOrder>>,
}

impl RulePack {
    fn from_rule_set(
        rules: RuleSet,
        manifest: PackManifest,
        origin: PackSource,
        artefacts: Vec<Arc<CompiledOrder>>,
    ) -> RulePack {
        let mut fingerprints: Vec<u64> = rules.iter().map(order_fingerprint).collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        RulePack {
            rules,
            fingerprints,
            version: PACK_VERSION,
            manifest,
            origin,
            artefacts,
        }
    }

    /// Whether this pack carries precompiled ORDER artefacts for every
    /// rule (true exactly when the origin is [`PackSource::Compiled`]).
    pub fn is_precompiled(&self) -> bool {
        !self.artefacts.is_empty()
    }

    /// Pre-seeds `cache` with this pack's precompiled artefacts,
    /// returning how many entries were inserted. For a compiled pack
    /// this is the whole point: after seeding, an engine warm-up over
    /// these rules is all cache hits and compiles nothing. For a
    /// source-origin pack there is nothing to seed and this returns 0.
    pub fn seed(&self, cache: &OrderCache) -> usize {
        cache.seed(self.artefacts.iter().cloned())
    }

    /// Content fingerprint of the whole pack: FNV-1a-64 over the sorted
    /// rule fingerprints. Two packs agree exactly when their rules'
    /// compilation inputs agree; surfaced in `/loadz`, `/metrics` and
    /// the Table-1 report so operators can tell which pack a daemon
    /// actually serves.
    pub fn pack_fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.fingerprints.len() * 8);
        for fp in &self.fingerprints {
            bytes.extend_from_slice(&fp.to_le_bytes());
        }
        fnv1a_64(&bytes)
    }

    /// Serializes this pack — rules plus freshly compiled ORDER
    /// artefacts — into the versioned, checksummed `.crpack` byte
    /// format ([`pack`] module docs spell out the layout).
    ///
    /// # Errors
    ///
    /// [`CryslError::Pack`] when a rule's ORDER fails to compile.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CryslError> {
        pack::encode(&self.rules, &self.manifest)
    }
}

/// Opens a rule pack from any [`PackSource`] — the single loading
/// entry point for the whole workspace.
///
/// [`PackSource::Embedded`] is parsed at most once per process and
/// served from a shared copy afterwards (the cost of a call after the
/// first is one `RuleSet` clone). Filesystem sources are re-read on
/// every call, which is what lets `serve` hot-reload them.
///
/// # Errors
///
/// See [`PackError`]; malformed sources and corrupt packs are typed
/// errors, never panics.
pub fn open(source: PackSource) -> Result<RulePack, PackError> {
    match source {
        PackSource::Embedded => {
            let shared = embedded_shared()?;
            Ok(RulePack::from_rule_set(
                shared.clone(),
                embedded_manifest(),
                PackSource::Embedded,
                Vec::new(),
            ))
        }
        other => open_uncached(other),
    }
}

/// The manifest the embedded rule set carries: the latest `jca`
/// catalog entry.
fn embedded_manifest() -> PackManifest {
    catalog_pack("jca", None)
        .expect("catalog always ships a jca pack")
        .manifest()
}

/// [`open`] without the process-wide embedded cache: every call — for
/// every source kind — lexes, parses and validates (or decodes) from
/// scratch. This is the cold path benchmarks measure; ordinary callers
/// want [`open`].
///
/// # Errors
///
/// See [`PackError`].
pub fn open_uncached(source: PackSource) -> Result<RulePack, PackError> {
    match source {
        PackSource::Embedded => {
            let rules = parse_embedded()?;
            Ok(RulePack::from_rule_set(
                rules,
                embedded_manifest(),
                PackSource::Embedded,
                Vec::new(),
            ))
        }
        PackSource::Catalog { name, version } => {
            let spec = catalog_pack(&name, version).ok_or_else(|| {
                let shipped: Vec<String> = PACK_CATALOG
                    .iter()
                    .map(|p| format!("{}@v{}", p.name, p.version))
                    .collect();
                PackError::Crysl(CryslError::pack(match version {
                    Some(v) => format!(
                        "unknown rule-pack version {name}@v{v}; this build ships {}",
                        shipped.join(", ")
                    ),
                    None => format!(
                        "unknown rule pack {name}; this build ships {}",
                        shipped.join(", ")
                    ),
                }))
            })?;
            let mut set = RuleSet::new();
            for (_, src) in spec.rules {
                set.add_source(src)?;
            }
            Ok(RulePack::from_rule_set(
                set,
                spec.manifest(),
                PackSource::Catalog { name, version },
                Vec::new(),
            ))
        }
        PackSource::SourceDir(dir) => {
            let rules = parse_source_dir(&dir)?;
            let stem = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "source".to_owned());
            Ok(RulePack::from_rule_set(
                rules,
                PackManifest::new(stem, 0),
                PackSource::SourceDir(dir),
                Vec::new(),
            ))
        }
        PackSource::Compiled(path) => {
            let bytes = std::fs::read(&path).map_err(|e| PackError::Io {
                path: path.clone(),
                source: e,
            })?;
            let mut opened = open_bytes(&bytes)?;
            opened.origin = PackSource::Compiled(path);
            Ok(opened)
        }
    }
}

/// Decodes a `.crpack` byte image already in memory — what
/// [`PackSource::Compiled`] does after its file read. This is the
/// hostile-input surface: the bytes are checksum-verified and
/// length-capped before any structure is trusted, and *any* corruption
/// — truncation, bit flips, forged counts — is a typed
/// [`CryslError::Pack`], never a panic. The fuzzer drives this
/// directly with mutated pack images.
///
/// # Errors
///
/// [`PackError::Crysl`] wrapping the decode failure.
pub fn open_bytes(bytes: &[u8]) -> Result<RulePack, PackError> {
    let decoded = pack::decode(bytes)?;
    // The decoder already enforced that the artefact fingerprints equal
    // the distinct rule fingerprints in ascending order, so they *are*
    // the pack's fingerprint list — re-deriving it from the rules would
    // repeat per-rule hashing the decode just paid for.
    let fingerprints = decoded.artefacts.iter().map(|a| a.fingerprint).collect();
    Ok(RulePack {
        rules: decoded.rules,
        fingerprints,
        version: decoded.version,
        manifest: decoded.manifest,
        origin: PackSource::Compiled(PathBuf::from("<bytes>")),
        artefacts: decoded.artefacts.into_iter().map(Arc::new).collect(),
    })
}

/// The process-wide parsed embedded rule set: parsed on first access,
/// shared forever after. Only a successful parse is cached; after a
/// failure the next call re-parses and surfaces the error again.
fn embedded_shared() -> Result<&'static RuleSet, CryslError> {
    static SHARED: OnceLock<RuleSet> = OnceLock::new();
    if let Some(set) = SHARED.get() {
        return Ok(set);
    }
    let parsed = parse_embedded()?;
    Ok(SHARED.get_or_init(|| parsed))
}

fn parse_embedded() -> Result<RuleSet, CryslError> {
    let mut set = RuleSet::new();
    for (_, src) in RULE_SOURCES {
        set.add_source(src)?;
    }
    Ok(set)
}

/// Parses a rule pack from a directory of `*.crysl` files, sorted by
/// file name so the pack's rule order — and therefore everything
/// downstream — is independent of directory-iteration order.
fn parse_source_dir(dir: &Path) -> Result<RuleSet, PackError> {
    let io_err = |path: &Path, e: std::io::Error| PackError::Io {
        path: path.to_path_buf(),
        source: e,
    };
    let entries = std::fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "crysl") {
            files.push(path);
        }
    }
    if files.is_empty() {
        return Err(PackError::Invalid(format!(
            "rule pack {} holds no .crysl file",
            dir.display()
        )));
    }
    files.sort();
    let mut set = RuleSet::new();
    for path in &files {
        let source = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        set.add_source(&source)?;
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crysl::ast::{Constraint, Literal, PredArg};
    use statemachine::paths::{enumerate, PathLimit};
    use statemachine::{Dfa, Nfa};

    fn embedded() -> RuleSet {
        open(PackSource::Embedded).unwrap().rules
    }

    #[test]
    fn all_rules_parse_and_validate() {
        let pack = open_uncached(PackSource::Embedded).unwrap();
        assert_eq!(pack.rules.len(), RULE_SOURCES.len());
        assert_eq!(pack.origin, PackSource::Embedded);
        assert!(!pack.is_precompiled());
    }

    #[test]
    fn embedded_opens_share_one_parse() {
        let a = open(PackSource::Embedded).unwrap();
        let b = open(PackSource::Embedded).unwrap();
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.fingerprints, b.fingerprints);
        assert_eq!(a.pack_fingerprint(), b.pack_fingerprint());
        // Both opens ride the same process-wide parse.
        let shared = embedded_shared().unwrap();
        assert_eq!(*shared, a.rules);
    }

    #[test]
    fn source_dir_and_compiled_pack_agree_with_embedded() {
        let dir = std::env::temp_dir().join(format!("rules-open-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, src) in RULE_SOURCES {
            std::fs::write(dir.join(format!("{name}.crysl")), src).unwrap();
        }
        let from_dir = open(PackSource::detect(&dir)).unwrap();
        assert!(matches!(from_dir.origin, PackSource::SourceDir(_)));

        let embedded = open(PackSource::Embedded).unwrap();
        assert_eq!(from_dir.rules, embedded.rules);
        assert_eq!(from_dir.pack_fingerprint(), embedded.pack_fingerprint());

        let crpack = dir.join("jca.crpack");
        std::fs::write(&crpack, embedded.to_bytes().unwrap()).unwrap();
        let compiled = open(PackSource::detect(&crpack)).unwrap();
        assert!(matches!(compiled.origin, PackSource::Compiled(_)));
        assert!(compiled.is_precompiled());
        assert_eq!(compiled.rules, embedded.rules);
        assert_eq!(compiled.fingerprints, embedded.fingerprints);
        assert_eq!(compiled.pack_fingerprint(), embedded.pack_fingerprint());

        // Seeding an empty cache inserts one artefact per fingerprint;
        // a source pack seeds nothing.
        let cache = OrderCache::new();
        assert_eq!(compiled.seed(&cache), compiled.fingerprints.len());
        assert_eq!(embedded.seed(&cache), 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_errors_are_typed_not_panics() {
        let missing = PathBuf::from("/nonexistent/path/jca.crpack");
        assert!(matches!(
            open(PackSource::Compiled(missing)).unwrap_err(),
            PackError::Io { .. }
        ));

        let empty = std::env::temp_dir().join(format!("rules-empty-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            open(PackSource::SourceDir(empty.clone())).unwrap_err(),
            PackError::Invalid(_)
        ));
        // A source file that is not a pack decodes to a typed error.
        let bogus = empty.join("not-a-pack");
        std::fs::write(&bogus, b"hello world, definitely not CRPK").unwrap();
        assert!(matches!(
            open(PackSource::Compiled(bogus)).unwrap_err(),
            PackError::Crysl(CryslError::Pack { .. })
        ));
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn malformed_rule_source_surfaces_a_crysl_error_not_a_panic() {
        // Regression test for the panic-free loading path: a malformed
        // source must come back as Err, and a duplicate of a shipped
        // rule is also an error, not a panic.
        let dir = std::env::temp_dir().join(format!("rules-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.crysl"), RULE_SOURCES[0].1).unwrap();
        std::fs::write(dir.join("bad.crysl"), "SPEC \nEVENTS ???").unwrap();
        let err = open(PackSource::SourceDir(dir.clone())).unwrap_err();
        assert!(matches!(err, PackError::Crysl(_)));
        assert!(!err.to_string().is_empty());

        std::fs::remove_file(dir.join("bad.crysl")).unwrap();
        std::fs::write(dir.join("dup.crysl"), RULE_SOURCES[0].1).unwrap();
        assert!(open(PackSource::SourceDir(dir.clone())).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pbekeyspec_matches_paper_figure_2() {
        let set = embedded();
        let r = set.by_name("javax.crypto.spec.PBEKeySpec").unwrap();
        assert_eq!(r.objects.len(), 4);
        assert!(r
            .method_event("c1")
            .unwrap()
            .is_constructor_of("PBEKeySpec"));
        assert_eq!(r.requires[0].name, "randomized");
        assert_eq!(r.ensures[0].predicate.name, "speccedKey");
        assert_eq!(r.ensures[0].after.as_deref(), Some("c1"));
        assert_eq!(r.negates[0].name, "speccedKey");
        assert_eq!(r.negates[0].args[1], PredArg::Wildcard);
        // iterationCount >= 10000 present
        assert!(r.constraints.iter().any(|c| matches!(
            c,
            Constraint::Cmp { left: crysl::ast::Atom::Var(v), .. } if v == "iterationCount"
        )));
        assert_eq!(r.forbidden.len(), 1);
    }

    #[test]
    fn every_rule_has_a_finite_generation_path_set() {
        let set = embedded();
        for rule in set.iter() {
            let paths = enumerate(rule, PathLimit::default())
                .unwrap_or_else(|e| panic!("{}: {e}", rule.class_name));
            assert!(!paths.is_empty(), "{} has no paths", rule.class_name);
            // Every enumerated path must be accepted by the rule's DFA.
            let dfa = Dfa::from_nfa(&Nfa::from_rule(rule).unwrap());
            for p in &paths {
                let word: Vec<&str> = p.iter().map(String::as_str).collect();
                assert!(
                    dfa.accepts(word.iter().copied()),
                    "{}: path {p:?} rejected",
                    rule.class_name
                );
            }
        }
    }

    #[test]
    fn cipher_has_instanceof_guarded_transformations() {
        let set = embedded();
        let cipher = set.by_name("javax.crypto.Cipher").unwrap();
        let mut symmetric = None;
        let mut asymmetric = 0;
        for c in &cipher.constraints {
            if let Constraint::Implies {
                antecedent,
                consequent,
            } = c
            {
                if let Constraint::InstanceOf { java_type, .. } = antecedent.as_ref() {
                    if java_type.as_str() == "javax.crypto.SecretKey" {
                        symmetric = Some(consequent.clone());
                    } else {
                        asymmetric += 1;
                    }
                }
            }
        }
        assert_eq!(asymmetric, 2);
        match symmetric.as_deref() {
            Some(Constraint::In { choices, .. }) => {
                assert_eq!(choices[0], Literal::Str("AES/CBC/PKCS5Padding".into()));
            }
            other => panic!("expected In constraint, got {other:?}"),
        }
    }

    #[test]
    fn signature_paths_split_on_sign_and_verify() {
        let set = embedded();
        let sig = set.by_name("java.security.Signature").unwrap();
        let paths = enumerate(sig, PathLimit::default()).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.contains(&"s1".to_owned())));
        assert!(paths.iter().any(|p| p.contains(&"v1".to_owned())));
    }

    #[test]
    fn predicate_graph_links_pbe_chain() {
        let set = embedded();
        // randomized: SecureRandom -> PBEKeySpec / IvParameterSpec / GCM
        assert_eq!(set.ensurers_of("randomized").len(), 1);
        // speccedKey: PBEKeySpec -> SecretKeyFactory
        assert_eq!(set.ensurers_of("speccedKey").len(), 1);
        // generatedKey: SecretKeyFactory, SecretKeySpec, KeyGenerator,
        // KeyPair, and Cipher (unwrap).
        assert_eq!(set.ensurers_of("generatedKey").len(), 5);
        // preparedIV: IvParameterSpec, GCMParameterSpec
        assert_eq!(set.ensurers_of("preparedIV").len(), 2);
    }

    #[test]
    fn every_shipped_rule_roundtrips_through_the_printer() {
        // parse → print → parse is the identity on rule semantics.
        for (name, src) in RULE_SOURCES {
            let rule = crysl::parse_rule(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let printed = crysl::printer::print_rule(&rule);
            let reparsed = crysl::parse_rule(&printed)
                .unwrap_or_else(|e| panic!("{name} reparse: {e}\n---\n{printed}"));
            assert_eq!(rule, reparsed, "{name} changed across the round trip");
        }
    }

    #[test]
    fn catalog_packs_all_parse_and_declare_use_cases() {
        for spec in PACK_CATALOG {
            let pack = open(PackSource::Catalog {
                name: spec.name.to_owned(),
                version: Some(spec.version),
            })
            .unwrap_or_else(|e| panic!("{}@v{}: {e}", spec.name, spec.version));
            assert_eq!(pack.rules.len(), spec.rules.len());
            assert_eq!(pack.manifest, spec.manifest());
            assert!(
                !spec.use_cases.is_empty(),
                "{}@v{} declares no use cases",
                spec.name,
                spec.version
            );
            let mut sorted = spec.use_cases.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.as_slice(), spec.use_cases, "{} ids", spec.name);
        }
        // The union of pack-declared use cases covers the ≥25 scale-out.
        let mut all: Vec<u8> = PACK_CATALOG
            .iter()
            .flat_map(|p| p.use_cases.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert!(all.len() >= 25, "only {} use cases catalogued", all.len());
    }

    #[test]
    fn embedded_is_the_latest_jca_catalog_pack() {
        let embedded = open(PackSource::Embedded).unwrap();
        let latest = catalog_pack("jca", None).unwrap();
        let from_catalog = open(PackSource::Catalog {
            name: "jca".to_owned(),
            version: None,
        })
        .unwrap();
        assert_eq!(embedded.manifest, latest.manifest());
        assert_eq!(embedded.rules, from_catalog.rules);
        assert_eq!(embedded.pack_fingerprint(), from_catalog.pack_fingerprint());
    }

    #[test]
    fn jca_versions_diverge_only_in_the_key_pair_generator() {
        let v1 = open(PackSource::Catalog {
            name: "jca".to_owned(),
            version: Some(1),
        })
        .unwrap();
        let v2 = open(PackSource::Catalog {
            name: "jca".to_owned(),
            version: Some(2),
        })
        .unwrap();
        assert_eq!(v1.rules.len(), v2.rules.len());
        // The ORDER automata agree (the divergence is in CONSTRAINTS),
        // so the packs are told apart by manifest, not fingerprint.
        assert_ne!(v1.manifest, v2.manifest);
        assert_ne!(v1.rules, v2.rules);
        let kpg1 = v1.rules.by_name("java.security.KeyPairGenerator").unwrap();
        let kpg2 = v2.rules.by_name("java.security.KeyPairGenerator").unwrap();
        assert_eq!(kpg1.in_choices("keySize").unwrap()[0], Literal::Int(1024));
        assert_eq!(kpg2.in_choices("keySize").unwrap()[0], Literal::Int(2048));
        for rule in v1.rules.iter() {
            let name = rule.class_name.as_str();
            if name != "java.security.KeyPairGenerator" {
                assert_eq!(Some(rule), v2.rules.by_name(name));
            }
        }
    }

    #[test]
    fn detect_recognizes_catalog_names_but_not_paths() {
        // (The bare name "jca" would shadow this crate's own jca/
        // source directory under the test cwd — existing paths win —
        // so the bare-name case uses a catalog name with no such dir.)
        assert_eq!(
            PackSource::detect("agreement"),
            PackSource::Catalog {
                name: "agreement".to_owned(),
                version: None
            }
        );
        assert_eq!(
            PackSource::detect("aead@v1"),
            PackSource::Catalog {
                name: "aead".to_owned(),
                version: Some(1)
            }
        );
        // Unknown versions still classify as catalog so open() can
        // report them as version errors rather than missing files.
        assert_eq!(
            PackSource::detect("jca@v9"),
            PackSource::Catalog {
                name: "jca".to_owned(),
                version: Some(9)
            }
        );
        // Non-catalog spellings keep their path semantics.
        assert!(matches!(
            PackSource::detect("no-such-pack.crpack"),
            PackSource::Compiled(_)
        ));
        assert!(matches!(
            PackSource::detect("some/dir/jca"),
            PackSource::Compiled(_)
        ));
    }

    #[test]
    fn unknown_catalog_version_is_a_typed_error() {
        let err = open(PackSource::Catalog {
            name: "jca".to_owned(),
            version: Some(9),
        })
        .unwrap_err();
        assert!(matches!(err, PackError::Crysl(CryslError::Pack { .. })));
        assert!(err.to_string().contains("jca@v9"), "{err}");
        assert!(err.to_string().contains("jca@v2"), "{err}");

        let err = open(PackSource::Catalog {
            name: "nope".to_owned(),
            version: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown rule pack"), "{err}");
    }

    #[test]
    fn compiled_catalog_packs_round_trip_their_manifest() {
        for spec in PACK_CATALOG {
            let pack = open(PackSource::Catalog {
                name: spec.name.to_owned(),
                version: Some(spec.version),
            })
            .unwrap();
            let bytes = pack.to_bytes().unwrap();
            let reopened = open_bytes(&bytes).unwrap();
            assert_eq!(reopened.manifest, spec.manifest());
            assert_eq!(reopened.rules, pack.rules);
            assert_eq!(reopened.pack_fingerprint(), pack.pack_fingerprint());
            assert!(reopened.is_precompiled());
        }
    }

    #[test]
    fn preference_order_lists_cbc_first_and_sha256_only() {
        let set = embedded();
        let md = set.by_name("java.security.MessageDigest").unwrap();
        assert_eq!(
            md.in_choices("alg").unwrap(),
            &[Literal::Str("SHA-256".into())]
        );
        let kg = set.by_name("javax.crypto.KeyGenerator").unwrap();
        assert_eq!(kg.in_choices("keySize").unwrap()[0], Literal::Int(128));
    }
}
