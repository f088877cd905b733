//! Ablations of the generator's design choices (DESIGN.md §6): what
//! breaks when the paper's path filters and tie-breaks are turned off.
//! These tests document *why* each mechanism exists.

use cognicryptgen::core::pathsel::SelectionOptions;
use cognicryptgen::core::{GenError, Generator, GeneratorOptions};
use cognicryptgen::javamodel::jca::jca_type_table;
use cognicryptgen::rules::{open, PackSource};
use cognicryptgen::sast::{analyze_unit, AnalyzerOptions};
use cognicryptgen::usecases;

fn generator_with(selection: SelectionOptions) -> Generator {
    Generator::with_options(GeneratorOptions {
        selection,
        // The ablated configurations may produce ill-typed or insecure
        // code; keep the type check off so we can inspect the output.
        skip_type_check: true,
    })
}

#[test]
fn without_predicate_filters_the_iv_less_init_slips_through() {
    // Paper §3.3: "for the class that requires the predicate,
    // CogniCryptGEN picks method sequences that make use of the
    // predicate." Turning that filter off lets Cipher choose the shorter
    // IV-less init for a CBC encryption: the generated code then fails
    // the moment it runs, because CBC needs an IV.
    use cognicryptgen::core::template::{CrySlCodeGenerator, Template, TemplateMethod};
    use cognicryptgen::interp::{Interpreter, Value};
    use cognicryptgen::javamodel::ast::{Expr, JavaType, Stmt};

    let encrypt_only = Template::new("p", "Enc").method(
        TemplateMethod::new("encrypt", JavaType::byte_array())
            .param(JavaType::byte_array(), "plainText")
            .param(JavaType::class("javax.crypto.SecretKey"), "key")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "ivBytes",
                Expr::new_array(JavaType::Byte, Expr::int(16)),
            ))
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "cipherText",
                Expr::null(),
            ))
            .chain(
                CrySlCodeGenerator::get_instance()
                    .consider_crysl_rule("java.security.SecureRandom")
                    .add_parameter("ivBytes", "out")
                    .consider_crysl_rule("javax.crypto.spec.IvParameterSpec")
                    .add_parameter("ivBytes", "iv")
                    .consider_crysl_rule("javax.crypto.Cipher")
                    .add_parameter("key", "key")
                    .add_parameter("plainText", "plainText")
                    .add_return_object("cipherText")
                    .build(),
            )
            .post(Stmt::Return(Some(Expr::var("cipherText")))),
    );

    let off = SelectionOptions {
        filter_predicates: false,
        ..SelectionOptions::default()
    };
    let broken = generator_with(off)
        .generate_uncached(
            &encrypt_only,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .expect("generation still succeeds mechanically");
    assert!(
        broken.java_source.contains(".init(1, key);"),
        "expected the IV-less init without the filter:\n{}",
        broken.java_source
    );
    // Running the ablated output fails: CBC without an IV.
    let mut interp = Interpreter::new(&broken.unit);
    let key_unit = Generator::new()
        .generate_uncached(
            &usecases::use_case(4).unwrap().template,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .expect("generates");
    let key = Interpreter::new(&key_unit.unit)
        .call_static_style("SecureSymmetricEncryptor", "generateKey", vec![])
        .expect("key generation runs");
    let err = interp
        .call_static_style("Enc", "encrypt", vec![Value::bytes(b"x".to_vec()), key])
        .unwrap_err();
    assert!(err.message.contains("IV"), "{err}");

    // With the paper's defaults the same template consumes the IV spec
    // and runs.
    let clean = Generator::new()
        .generate_uncached(
            &encrypt_only,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .expect("generates");
    assert!(
        clean
            .java_source
            .contains(".init(1, key, ivParameterSpec);"),
        "{}",
        clean.java_source
    );
}

#[test]
fn without_binding_filter_the_templates_algorithm_choice_is_ignored() {
    // A rule offering two alternative factory events, both resolvable
    // from constraints: only the binding filter makes the generator honor
    // which one the template bound. Without it, the lexicographically
    // first path wins and the template's choice is silently dropped.
    use cognicryptgen::core::template::{CrySlCodeGenerator, Template, TemplateMethod};
    use cognicryptgen::crysl::RuleSet;
    use cognicryptgen::javamodel::ast::{Expr, JavaType, Stmt};

    let mut rules = RuleSet::new();
    rules
        .add_source(
            "SPEC java.security.MessageDigest\n\
             OBJECTS java.lang.String alg; java.lang.String altAlg; byte[] input; byte[] output;\n\
             EVENTS gA: getInstance(alg); gB: getInstance(altAlg); d1: output = digest(input);\n\
             ORDER (gA | gB), d1\n\
             CONSTRAINTS alg in {\"SHA-256\"}; altAlg in {\"SHA-512\"};",
        )
        .unwrap();
    let template = Template::new("p", "H").method(
        TemplateMethod::new("hash", JavaType::byte_array())
            .param(JavaType::byte_array(), "data")
            .param(JavaType::string(), "algChoice")
            .pre(Stmt::decl_init(JavaType::byte_array(), "out", Expr::null()))
            .chain(
                CrySlCodeGenerator::get_instance()
                    .consider_crysl_rule("java.security.MessageDigest")
                    .add_parameter("algChoice", "altAlg") // pick the gB variant
                    .add_parameter("data", "input")
                    .add_return_object("out")
                    .build(),
            )
            .post(Stmt::Return(Some(Expr::var("out")))),
    );

    // Defaults honor the binding: the bound template variable is used.
    let honored = Generator::new()
        .generate_uncached(&template, &rules, &jca_type_table())
        .expect("generates");
    assert!(
        honored.java_source.contains("getInstance(algChoice)"),
        "{}",
        honored.java_source
    );

    // Filter off: the constraint literal of the *other* event wins.
    let off = SelectionOptions {
        filter_template_bindings: false,
        ..SelectionOptions::default()
    };
    let ignored = generator_with(off)
        .generate_uncached(&template, &rules, &jca_type_table())
        .expect("generates");
    assert!(
        ignored.java_source.contains("getInstance(\"SHA-256\")"),
        "template choice silently ignored without the filter:\n{}",
        ignored.java_source
    );
}

#[test]
fn longest_path_tie_break_emits_more_calls() {
    // Shortest-path selection is a code-size choice, not a correctness
    // one: with the longest-path tie-break the optional events are
    // included, generated code grows, and it still passes the analyzer.
    let longest = SelectionOptions {
        prefer_shortest: false,
        ..SelectionOptions::default()
    };
    let short = Generator::new()
        .generate_uncached(
            &usecases::use_case(2).unwrap().template,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .expect("generates");
    let long = Generator::with_options(GeneratorOptions {
        selection: longest,
        ..GeneratorOptions::default()
    })
    .generate_uncached(
        &usecases::use_case(2).unwrap().template,
        &open(PackSource::Embedded).unwrap().rules,
        &jca_type_table(),
    )
    .expect("generates");
    assert!(
        long.java_source.lines().count() >= short.java_source.lines().count(),
        "longest-path output must not be shorter"
    );
    // Both remain misuse-free — the tie-break trades size, not security.
    for g in [&short, &long] {
        assert!(analyze_unit(
            &g.unit,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
            AnalyzerOptions::default()
        )
        .is_empty());
    }
}

#[test]
fn disabling_fallback_makes_unresolved_parameters_hard_errors() {
    use cognicryptgen::core::template::{CrySlCodeGenerator, Template, TemplateMethod};
    use cognicryptgen::javamodel::ast::JavaType;

    let chain = CrySlCodeGenerator::get_instance()
        .consider_crysl_rule("java.security.MessageDigest")
        .build();
    let t = Template::new("p", "C").method(TemplateMethod::new("go", JavaType::Void).chain(chain));
    let no_fallback = SelectionOptions {
        fallback_hoisting: false,
        ..SelectionOptions::default()
    };
    let err = generator_with(no_fallback)
        .generate_uncached(
            &t,
            &open(PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .unwrap_err();
    assert!(matches!(err, GenError::UnresolvedParameter { .. }), "{err}");
}
