//! A booted rule pack. Every surface that generates over a pack — the
//! CLI's `generate`, `batch`, `report` and `analyze`, the Table-1
//! report, [`crate::jca_engine`], the daemon at start and on every
//! hot-reload — boots it through [`ServedPack::boot`], so a pack is
//! seeded and warmed one way, and a use case is served everywhere or
//! nowhere ([`ServedPack::case`]).

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cognicrypt_core::GenEngine;
use crysl::CryslError;
use rules::{PackManifest, PackSource, RulePack};
use statemachine::OrderCache;
use usecases::UseCase;

use crate::report::BootStats;
use crate::{find_use_case, Error};

/// A rule pack booted into a warm engine. Immutable once built: a
/// daemon reload boots a successor and swaps the whole value, so the
/// engine, the pack identity and the declared cases one request reads
/// always belong together.
#[derive(Debug)]
pub struct ServedPack {
    engine: GenEngine,
    manifest: PackManifest,
    declared: Option<&'static [u8]>,
    fingerprints: Vec<u64>,
    boot: BootStats,
}

impl ServedPack {
    /// Opens `source` through [`rules::open`], timing the open, and
    /// [`ServedPack::boot`]s the pack.
    ///
    /// # Errors
    ///
    /// The typed pack open failures, and those of the boot.
    pub fn open(source: PackSource, live: Option<&ServedPack>) -> Result<ServedPack, Error> {
        let started = Instant::now();
        let pack = rules::open(source)?;
        ServedPack::boot(pack, started.elapsed(), live)
    }

    /// The one boot: builds the engine over `pack`, whose open took
    /// `load`, so that every ORDER lookup hits. A `.crpack` seeds its
    /// artefacts and skips warm-up (the decoder refuses a pack lacking
    /// the artefact of any rule fingerprint); a source pack compiles
    /// every ORDER during warm-up. A successor of a `live` pack (a
    /// hot-reload) shares its ORDER cache and metrics registry.
    ///
    /// # Errors
    ///
    /// [`Error::Rules`] (exit 3) when an ORDER fails to compile — a
    /// subset construction past the state bound, say — and
    /// engine-build failures.
    pub fn boot(
        pack: RulePack,
        load: Duration,
        live: Option<&ServedPack>,
    ) -> Result<ServedPack, Error> {
        let cache = live.map_or_else(
            || Arc::new(OrderCache::new()),
            |live| live.engine.order_cache().clone(),
        );
        let mut boot = BootStats {
            origin: pack.origin.to_string(),
            kind: pack.origin.kind(),
            pack_version: pack.version,
            pack_fingerprint: pack.pack_fingerprint(),
            rules: pack.rules.len(),
            precompiled: pack.is_precompiled(),
            rules_load_us: load.as_secs_f64() * 1e6,
            cache_seeded: pack.seed(&cache),
            warm_hits: 0,
            warm_compiled: 0,
        };
        let engine = match live {
            Some(live) => live.engine.with_rule_set(pack.rules),
            None => GenEngine::builder()
                .rules(pack.rules)
                .order_cache(cache)
                .build()?,
        };
        if !boot.precompiled {
            let warm = engine.warm_traced().map_err(|e| {
                Error::Rules(CryslError::validate(format!(
                    "an ORDER fails to compile: {e}"
                )))
            })?;
            (boot.warm_hits, boot.warm_compiled) = (warm.hits, warm.compiled);
        }
        Ok(ServedPack {
            engine,
            declared: rules::declared_use_cases(&pack.manifest),
            manifest: pack.manifest,
            fingerprints: pack.fingerprints,
            boot,
        })
    }

    /// The process-wide embedded pack, booted on first use. Only a
    /// successful boot is kept; after a failure the next call retries.
    ///
    /// # Errors
    ///
    /// See [`ServedPack::open`].
    pub fn embedded() -> Result<&'static ServedPack, Error> {
        static EMBEDDED: OnceLock<ServedPack> = OnceLock::new();
        if let Some(served) = EMBEDDED.get() {
            return Ok(served);
        }
        let served = ServedPack::open(PackSource::Embedded, None)?;
        Ok(EMBEDDED.get_or_init(|| served))
    }

    /// The engine generating on this pack.
    pub fn engine(&self) -> &GenEngine {
        &self.engine
    }

    /// The pack's manifest (`name@vN`).
    pub fn manifest(&self) -> &PackManifest {
        &self.manifest
    }

    /// How the pack booted: origin, load time, seeding and warm-up.
    pub fn boot_stats(&self) -> &BootStats {
        &self.boot
    }

    /// The pack's distinct ORDER fingerprints, ascending.
    pub(crate) fn fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Whether this pack serves use case `id`: a catalog pack serves
    /// the cases its manifest declares ([`rules::declared_use_cases`]),
    /// any other pack the whole catalogue.
    fn declares(&self, id: u8) -> bool {
        self.declared.is_none_or(|ids| ids.contains(&id))
    }

    /// Resolves `selector` ([`find_use_case`]) to a case this pack
    /// declares.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] when nothing matches, or the match is a case
    /// the pack does not declare.
    pub fn case(&self, selector: &str) -> Result<&'static UseCase, Error> {
        let uc = find_use_case(selector)?;
        if self.declares(uc.id) {
            Ok(uc)
        } else {
            Err(Error::Usage(format!(
                "the served rule pack does not declare use case {} ({})",
                uc.id, uc.name
            )))
        }
    }

    /// Every case this pack declares, in id order.
    pub fn cases(&self) -> Vec<&'static UseCase> {
        usecases::catalogue()
            .iter()
            .filter(|file| self.declares(file.id))
            .map(usecases::CaseFile::use_case)
            .collect()
    }
}
