//! Facade crate re-exporting the CogniCryptGEN reproduction workspace.
pub mod error;
pub mod report;
pub mod serve;

pub use error::Error;

pub use cognicrypt_core as core;
pub use cognicrypt_fuzz as fuzz;
pub use cognicrypt_load as load;
pub use crysl;
pub use interp;
pub use javamodel;
pub use jcasim;
pub use oldgen;
pub use rules;
pub use sast;
pub use statemachine;
pub use stats;
pub use usecases;

use std::sync::OnceLock;

use cognicrypt_core::GenEngine;
use usecases::{CaseFile, UseCase};

/// The process-wide generation engine over the shipped JCA rule set and
/// type table: the embedded rules via `rules::open` (parsed once per
/// process), plus a compiled-ORDER cache that warms up across calls. The CLI's
/// `generate` and `batch` subcommands and any embedding service share
/// this one session.
///
/// # Errors
///
/// [`Error::Rules`] when a shipped rule fails to parse — a corrupted
/// rule pack must surface as the typed error (CLI exit code 3), never
/// as a panic: a library-level panic would kill a resident process
/// serving unrelated requests. Only a successfully built engine is
/// cached; after a failure the next call retries.
pub fn jca_engine() -> Result<&'static GenEngine, Error> {
    static ENGINE: OnceLock<GenEngine> = OnceLock::new();
    if let Some(engine) = ENGINE.get() {
        return Ok(engine);
    }
    let engine = GenEngine::builder()
        .rules(rules::open(rules::PackSource::Embedded)?.rules)
        .type_table(javamodel::jca::jca_type_table())
        .build()?;
    Ok(ENGINE.get_or_init(|| engine))
}

/// Resolves a use-case selector — a Table-1 id (`"3"`) or a
/// case-insensitive name fragment (`"password"`) — against the shipped
/// use cases. Shared by the CLI front end and the daemon protocol. The
/// match reads only the template files' headers; the matched case's
/// template is parsed on its first use, once per process.
///
/// # Errors
///
/// [`Error::Usage`] when nothing matches.
pub fn find_use_case(selector: &str) -> Result<&'static UseCase, Error> {
    find_case_file(selector).map(CaseFile::use_case)
}

/// The template file [`find_use_case`] resolves `selector` to, without
/// parsing it.
///
/// # Errors
///
/// [`Error::Usage`] when nothing matches.
pub fn find_case_file(selector: &str) -> Result<&'static CaseFile, Error> {
    let files = usecases::catalogue();
    // A numeric selector is an id, never a name fragment: "0" must not
    // resolve just because some use-case name happens to contain that
    // digit.
    if let Ok(id) = selector.parse::<u8>() {
        return files
            .iter()
            .find(|f| f.id == id)
            .ok_or_else(|| Error::Usage(format!("no use case {id} (try `list`)")));
    }
    let lowered = selector.to_lowercase();
    files
        .iter()
        .find(|f| f.name.to_lowercase().contains(&lowered))
        .ok_or_else(|| Error::Usage(format!("no use case matches `{selector}` (try `list`)")))
}

/// Whether a rule pack serves use case `id`. `declared` is
/// [`rules::declared_use_cases`] of the pack's manifest; `None`, a pack
/// outside the catalog, serves the whole catalogue. This is the one
/// membership rule of every surface that generates over a chosen pack
/// (`generate` and `batch`, the daemon's `/generate` and `/batch`, and
/// the report), so a case is served everywhere or nowhere.
pub fn declares(declared: Option<&[u8]>, id: u8) -> bool {
    declared.is_none_or(|ids| ids.contains(&id))
}

/// Refuses a use case the serving pack does not [`declares`].
///
/// # Errors
///
/// [`Error::Usage`] when `uc` is outside the declared set.
pub fn check_declared(declared: Option<&[u8]>, uc: &UseCase) -> Result<(), Error> {
    if declares(declared, uc.id) {
        Ok(())
    } else {
        Err(Error::Usage(format!(
            "the served rule pack does not declare use case {} ({})",
            uc.id, uc.name
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jca_engine_is_a_singleton_and_generates() {
        let engine = jca_engine().expect("shipped rules are well-formed");
        assert!(std::ptr::eq(engine, jca_engine().unwrap()));
        let uc = find_use_case("1").unwrap();
        let first = engine.generate(&uc.template).expect("generates");
        let second = engine.generate(&uc.template).expect("generates");
        assert_eq!(first.java_source, second.java_source);
        assert!(engine.cache_stats().hits > 0);
    }

    #[test]
    fn find_use_case_resolves_ids_and_names_and_rejects_unknowns() {
        assert_eq!(find_use_case("1").unwrap().id, 1);
        let by_name = find_use_case("password").unwrap();
        assert!(by_name.name.to_lowercase().contains("password"));
        let err = find_use_case("no-such-case").unwrap_err();
        assert!(matches!(err, Error::Usage(_)));
        assert_eq!(err.exit_code(), 2);
    }
}
