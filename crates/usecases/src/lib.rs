//! The cryptographic use-case catalogue: the paper's Table 1 (rows 1–11)
//! plus the scale-out families the same engine generates.
//!
//! Each use case is a plain Java code template, as in the paper (Fig. 4):
//! `templates/ucNN.java` holds glue code plus, per method, at most one
//! `CrySLCodeGenerator.getInstance()…generate();` chain. Line 1 of each
//! file is a `// <id> | <name> | <sources>` header. The files are
//! compiled into the binary; [`catalogue`] reads their headers, and
//! [`CaseFile::use_case`] parses and lowers one file
//! ([`cognicrypt_core::template::parse_template`]) on its first use, once
//! per process.
//!
//! | # | Use case | File |
//! |---|----------|------|
//! | 1 | PBE on files | `uc01.java` |
//! | 2 | PBE on strings | `uc02.java` |
//! | 3 | PBE on byte arrays | `uc03.java` |
//! | 4 | Symmetric-key encryption | `uc04.java` |
//! | 5 | Hybrid file encryption | `uc05.java` |
//! | 6 | Hybrid string encryption | `uc06.java` |
//! | 7 | Hybrid byte-array encryption | `uc07.java` |
//! | 8 | Asymmetric string encryption | `uc08.java` |
//! | 9 | Secure user-password storage | `uc09.java` |
//! | 10 | Digital signing of strings | `uc10.java` |
//! | 11 | Hashing of strings | `uc11.java` |
//! | 12 | Authenticated encryption (AES-GCM) | `uc12.java` |
//! | 13 | Deterministic AEAD (AES-GCM-SIV) | `uc13.java` |
//! | 14 | ChaCha20-Poly1305 on byte arrays | `uc14.java` |
//! | 15 | ChaCha20-Poly1305 on strings | `uc15.java` |
//! | 16 | AES-CTR stream encryption | `uc16.java` |
//! | 17 | DH shared-secret derivation | `uc17.java` |
//! | 18 | ECDH shared-secret derivation | `uc18.java` |
//! | 19 | DH session encryption (AES-GCM) | `uc19.java` |
//! | 20 | ECDH session encryption (ChaCha20-Poly1305) | `uc20.java` |
//! | 21 | MAC under an agreed key | `uc21.java` |
//! | 22 | HMAC token minting | `uc22.java` |
//! | 23 | HKDF subkey expansion | `uc23.java` |
//! | 24 | HKDF-derived MAC tokens | `uc24.java` |
//! | 25 | Password-derived MAC tokens | `uc25.java` |
//! | 26 | Key export/import transport | `uc26.java` |
//!
//! Use cases 1–3 share the same fluent-API chains and differ only in
//! wrapper glue, as the paper observes; the same holds for 5–7 and
//! for 14–15.

use std::sync::OnceLock;

use cognicrypt_core::template::{parse_template, split_header};
use cognicrypt_core::Template;
use javamodel::jca::jca_type_table;
use javamodel::TypeTable;

macro_rules! template_files {
    ($($nn:literal)*) => {
        [$(include_str!(concat!("../templates/uc", $nn, ".java"))),*]
    };
}

/// The template files, in id order.
const FILES: [&str; 26] = template_files!(
    "01" "02" "03" "04" "05" "06" "07" "08" "09" "10" "11" "12" "13"
    "14" "15" "16" "17" "18" "19" "20" "21" "22" "23" "24" "25" "26"
);

/// A catalogued use case: its Table 1 row, name, sources and template.
#[derive(Debug, Clone)]
pub struct UseCase {
    /// Row number in the paper's Table 1.
    pub id: u8,
    /// Human-readable name, as in Table 1.
    pub name: &'static str,
    /// Source citations from Table 1 (`[21]` = CogniCrypt, `[27]` =
    /// CryptoExamples, `[29]` = Nadi et al.).
    pub sources: &'static str,
    /// The code template.
    pub template: Template,
}

/// One template file of the catalogue: its header, read without parsing
/// the Java below it, and the use case that Java lowers to.
#[derive(Debug)]
pub struct CaseFile {
    /// Use-case id, from the header.
    pub id: u8,
    /// Use-case name, from the header.
    pub name: &'static str,
    /// Source citations, from the header.
    pub sources: &'static str,
    /// The whole file, header line included.
    pub text: &'static str,
    /// The Java below the header line: the template Table 2 counts.
    pub java: &'static str,
    case: OnceLock<UseCase>,
}

impl CaseFile {
    /// The use case, its template parsed on the first call.
    ///
    /// # Panics
    ///
    /// If the shipped file does not lower: a build defect, not an input
    /// error, and one the tests catch, since they lower every file.
    pub fn use_case(&self) -> &UseCase {
        self.case.get_or_init(|| UseCase {
            id: self.id,
            name: self.name,
            sources: self.sources,
            template: parse_template(self.java, type_table())
                .unwrap_or_else(|e| panic!("templates/uc{:02}.java: {e}", self.id)),
        })
    }
}

fn type_table() -> &'static TypeTable {
    static TABLE: OnceLock<TypeTable> = OnceLock::new();
    TABLE.get_or_init(jca_type_table)
}

/// The template files in id order, headers read once per process.
///
/// # Panics
///
/// If a shipped file has no valid header (a build defect, which the
/// tests catch).
pub fn catalogue() -> &'static [CaseFile] {
    static CATALOGUE: OnceLock<Vec<CaseFile>> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        FILES
            .iter()
            .map(|text| {
                let (header, java) = split_header(text).unwrap_or_else(|e| panic!("{e}"));
                CaseFile {
                    id: header.id,
                    name: header.name,
                    sources: header.sources,
                    text,
                    java,
                    case: OnceLock::new(),
                }
            })
            .collect()
    })
}

/// The catalogued use case `id`, parsed on first use.
pub fn use_case(id: u8) -> Option<&'static UseCase> {
    catalogue()
        .iter()
        .find(|f| f.id == id)
        .map(CaseFile::use_case)
}

/// The full catalogue in id order: Table 1 rows 1–11, then the AEAD
/// (12–16), key-agreement (17–21) and token (22–26) families. Parses
/// every file not parsed yet.
pub fn all_use_cases() -> Vec<UseCase> {
    catalogue().iter().map(|f| f.use_case().clone()).collect()
}

// End-to-end tests of each template family, one module per family.
#[cfg(test)]
mod aead;
#[cfg(test)]
mod agreement;
#[cfg(test)]
mod asymmetric;
#[cfg(test)]
mod gcm;
#[cfg(test)]
mod hashing;
#[cfg(test)]
mod hybrid;
#[cfg(test)]
mod password;
#[cfg(test)]
mod pbe;
#[cfg(test)]
mod signing;
#[cfg(test)]
mod symmetric;
#[cfg(test)]
mod token;

/// Shared helpers of the family tests.
#[cfg(test)]
mod fixture {
    use cognicrypt_core::{generate, Generated, Template};
    use interp::{InterpError, Interpreter, Value};
    use javamodel::ast::{ClassDecl, CompilationUnit, Expr, JavaType, MethodDecl, Stmt};

    /// The template of catalogued case `id`.
    pub fn template(id: u8) -> &'static Template {
        &super::use_case(id).expect("catalogued id").template
    }

    /// Case `id` generated over the embedded pack.
    pub fn generated(id: u8) -> Generated {
        let pack = rules::open(rules::PackSource::Embedded).unwrap();
        generate(template(id), &pack.rules, super::type_table()).unwrap()
    }

    /// Calls into the one class of a generated unit.
    pub struct Run<'u> {
        /// The interpreter the calls run on.
        pub interp: Interpreter<'u>,
        class: &'u str,
    }

    impl<'u> Run<'u> {
        pub fn new(generated: &'u Generated) -> Self {
            Run {
                interp: Interpreter::new(&generated.unit),
                class: &generated.unit.classes[0].name,
            }
        }

        pub fn try_call(&mut self, method: &str, args: Vec<Value>) -> Result<Value, InterpError> {
            self.interp.call_static_style(self.class, method, args)
        }

        pub fn call(&mut self, method: &str, args: Vec<Value>) -> Value {
            self.try_call(method, args)
                .unwrap_or_else(|e| panic!("{}.{method}: {e}", self.class))
        }
    }

    /// Invokes a `KeyPair` accessor through a one-off helper program; key
    /// values are self-contained, so they move freely between
    /// interpreters.
    pub fn key_pair_part(key_pair: Value, accessor: &str) -> Value {
        let m = MethodDecl::new("acc", JavaType::class("java.lang.Object"))
            .param(JavaType::class("java.security.KeyPair"), "kp")
            .statement(Stmt::Return(Some(Expr::call(
                Expr::var("kp"),
                accessor,
                vec![],
            ))));
        let unit = CompilationUnit::new("q").class(ClassDecl::new("Acc").method(m));
        let mut helper = Interpreter::new(&unit);
        helper
            .call_static_style("Acc", "acc", vec![key_pair])
            .unwrap()
    }

    /// The rules of each chain of `t`, method by method.
    pub fn chain_rules(t: &Template) -> Vec<Vec<&str>> {
        t.methods
            .iter()
            .filter_map(|m| m.chain.as_ref())
            .map(|c| c.entries.iter().map(|e| e.rule.as_str()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::{chain_rules, generated, template};
    use super::*;

    #[test]
    fn every_use_case_generates_without_fallback() {
        for file in catalogue() {
            let g = generated(file.id);
            assert!(
                g.hoisted.is_empty(),
                "use case {} needed the fallback: {:?}",
                file.id,
                g.hoisted
            );
        }
    }

    #[test]
    fn hybrid_variants_share_chains_but_not_glue() {
        // Paper §5.1: "The same is true for use cases 5–7."
        let (h5, h6, h7) = (template(5), template(6), template(7));
        assert_eq!(chain_rules(h5), chain_rules(h6));
        assert_eq!(chain_rules(h6), chain_rules(h7));
        assert_ne!(h5, h6);
        assert_ne!(h6, h7);
    }

    #[test]
    fn pbe_variants_share_chains_but_not_glue() {
        // Paper §5.1: use cases 1–3 have the exact same fluent-API calls.
        let (c1, c2, c3) = (template(1), template(2), template(3));
        assert_eq!(chain_rules(c1), chain_rules(c2));
        assert_eq!(chain_rules(c2), chain_rules(c3));
        assert_ne!(c1, c2);
    }

    #[test]
    fn catalogue_entries_carry_headers_and_parse_once() {
        let file = &catalogue()[10];
        assert_eq!((file.id, file.name), (11, "Hashing of Strings"));
        assert!(file.text.ends_with(file.java));
        let first = use_case(11).unwrap();
        assert!(std::ptr::eq(first, use_case(11).unwrap()));
        assert_eq!(first.template.class_name, "SecureHasher");
        assert!(use_case(0).is_none());
    }
}
