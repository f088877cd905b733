//! Facade crate re-exporting the CogniCryptGEN reproduction workspace.
pub mod error;
pub mod report;
pub mod serve;
pub mod served;

pub use error::Error;
pub use served::ServedPack;

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

use cognicrypt_core::GenEngine;
use usecases::{CaseFile, UseCase};

/// The engine of the process-wide embedded [`ServedPack`]: the shipped
/// JCA rules, booted and warmed once per process.
///
/// # Errors
///
/// [`Error::Rules`] when a shipped rule fails to parse — typed (CLI
/// exit code 3), never a panic that would kill a resident process.
/// After a failure the next call retries.
pub fn jca_engine() -> Result<&'static GenEngine, Error> {
    ServedPack::embedded().map(ServedPack::engine)
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
