//! The generator façade: runs the five pipeline steps over a template and
//! type-checks the result.
//!
//! The pipeline body exists once, in a private function with two
//! public ways in: [`Generator::generate_uncached`] (free [`generate`]
//! is its default-options shorthand) is the stateless reference path,
//! and [`crate::GenEngine`] is the cached path, passing its own
//! compiled-ORDER cache and observer. Nothing here holds process-wide
//! state, so two calls can only share compiled artefacts by sharing an
//! engine.
//!
//! The pipeline is *phase-major*: each of the five phases (collect →
//! link → select → resolve → assemble) runs to completion over every
//! call chain of the template before the next phase starts. Besides
//! matching the paper's Figure 6 structure, this gives the telemetry
//! layer its core invariant — exactly one [`telemetry::Span`] enter/exit
//! pair per phase per generated template, each closing into the phase's
//! slot of the generation's [`GenRecord`].

use javamodel::ast::{ClassDecl, CompilationUnit, MethodDecl};
use javamodel::printer::print_unit;
use javamodel::typecheck::check_unit;
use javamodel::typetable::ClassDef;
use javamodel::TypeTable;

use statemachine::OrderCache;

use crate::assemble::{assemble, template_usage};
use crate::collect::{collect, CollectedRule};
use crate::error::GenError;
use crate::link::{link, Link};
use crate::pathsel::{select_path, SelectedPath, SelectionOptions};
use crate::resolve::{plan_path, Resolution};
use crate::telemetry::{self, GenObserver, GenRecord, Phase, Span, SpanTimer};
use crate::template::{GeneratorChain, Template, TemplateMethod};

/// Options controlling a generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeneratorOptions {
    /// Path-selection knobs (filters, tie-breaks, fallback hoisting).
    pub selection: SelectionOptions,
    /// Skip the final Java type check (used only by ablation benchmarks;
    /// the paper's guarantee depends on it staying on).
    pub skip_type_check: bool,
}

/// The result of a generation run.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The full compilation unit: template class plus `OutputClass`.
    pub unit: CompilationUnit,
    /// Pretty-printed Java source of `unit`.
    pub java_source: String,
    /// Names of wrapper parameters hoisted by the fallback rule, per
    /// method — empty for all shipped use cases (mirroring the paper's
    /// observation that the fallback never fires in practice).
    pub hoisted: Vec<(String, Vec<String>)>,
    /// What the run decided and what each phase cost.
    pub record: GenRecord,
}

/// A configured, stateless generator: the reference path. [`generate`]
/// is its default-options shorthand; [`crate::GenEngine`] is the cached
/// path over the same pipeline body.
#[derive(Debug, Clone, Copy, Default)]
pub struct Generator {
    options: GeneratorOptions,
}

impl Generator {
    /// Creates a generator with default (paper-faithful) options.
    pub fn new() -> Self {
        Generator::default()
    }

    /// Creates a generator with explicit options.
    pub fn with_options(options: GeneratorOptions) -> Self {
        Generator { options }
    }

    /// Runs the pipeline on `template` against `rules` and `table`,
    /// compiling every rule's ORDER pattern from scratch: no cache, no
    /// observer, no state shared with any other call. This is the
    /// reference path the differential suite compares
    /// [`crate::GenEngine`] against; repeated or concurrent generation
    /// belongs on an engine, whose compiled-ORDER cache it owns.
    ///
    /// # Errors
    ///
    /// Any [`GenError`] from the pipeline steps; see the variants for the
    /// failure modes. The returned code is guaranteed to pass the Java
    /// type checker unless `skip_type_check` was set.
    pub fn generate_uncached(
        &self,
        template: &Template,
        rules: &crysl::RuleSet,
        table: &TypeTable,
    ) -> Result<Generated, GenError> {
        self.run(template, rules, table, None, telemetry::noop())
    }

    /// The pipeline body, shared by both entry points: an optional
    /// compiled-ORDER cache (the engine passes its own) and an
    /// observer. Each phase runs over every call chain before the next
    /// phase starts, so the observer sees exactly one span pair per
    /// phase. A failing phase still closes its span (the error
    /// propagates; later phases never open); only a finished run
    /// returns its record.
    pub(crate) fn run(
        &self,
        template: &Template,
        rules: &crysl::RuleSet,
        table: &TypeTable,
        cache: Option<&OrderCache>,
        observer: &dyn GenObserver,
    ) -> Result<Generated, GenError> {
        let record = &mut GenRecord::default();
        let unit = template.class_name.as_str();
        let span_of = |phase| Span { unit, phase };

        // Per-chain pipeline state, in template-method order (helper
        // methods carry no chain and join again at assembly).
        struct ChainWork<'r, 't> {
            tm: &'t TemplateMethod,
            chain: &'t GeneratorChain,
            collected: Vec<CollectedRule<'r>>,
            links: Vec<Link>,
            paths: Vec<SelectedPath>,
            plans: Vec<Vec<Resolution>>,
        }

        // Phase 1: collect — gather rules and template bindings.
        let mut works: Vec<ChainWork<'_, '_>> = Vec::new();
        {
            let _span = SpanTimer::enter(observer, span_of(Phase::Collect), record);
            for tm in &template.methods {
                if let Some(chain) = &tm.chain {
                    let collected = collect(chain, tm, rules)?;
                    works.push(ChainWork {
                        tm,
                        chain,
                        collected,
                        links: Vec::new(),
                        paths: Vec::new(),
                        plans: Vec::new(),
                    });
                }
            }
        }

        // Phase 2: link — connect rules through ENSURES/REQUIRES.
        {
            let _span = SpanTimer::enter(observer, span_of(Phase::Link), record);
            for w in &mut works {
                w.links = link(&w.collected);
            }
        }

        // Phase 3: select — pick a method sequence per rule.
        {
            let mut span = SpanTimer::enter(observer, span_of(Phase::Select), record);
            for w in &mut works {
                let ret_ty = w
                    .chain
                    .return_object
                    .as_deref()
                    .and_then(|r| w.tm.var_type(r));
                for idx in 0..w.collected.len() {
                    // The last rule must be able to produce the
                    // nominated return object.
                    let expected = ret_ty.filter(|_| idx + 1 == w.collected.len());
                    w.paths.push(select_path(
                        idx,
                        &w.collected,
                        &w.links,
                        table,
                        &self.options.selection,
                        expected,
                        cache,
                        span.record(),
                    )?);
                }
            }
        }

        // Phase 4: resolve — plan how every parameter of the selected
        // paths obtains its value, recording each resolution. The
        // assembler emits its arguments from these plans.
        {
            let mut span = SpanTimer::enter(observer, span_of(Phase::Resolve), record);
            for w in &mut works {
                w.plans = w
                    .paths
                    .iter()
                    .enumerate()
                    .map(|(idx, sp)| {
                        plan_path(
                            idx,
                            &sp.labels,
                            &w.collected,
                            &w.links,
                            table,
                            span.record(),
                        )
                    })
                    .collect();
            }
        }

        // Phase 5: assemble — emit the Java code, the showcase class and
        // the type check.
        let assemble_span = SpanTimer::enter(observer, span_of(Phase::Assemble), record);
        let mut class = ClassDecl::new(template.class_name.clone());
        let mut hoisted_report = Vec::new();
        let mut chain_methods = Vec::new();
        let mut work_iter = works.iter();
        for tm in &template.methods {
            match &tm.chain {
                Some(chain) => {
                    let w = work_iter.next().expect("one ChainWork per chain method");
                    let assembled = assemble(
                        tm,
                        &w.collected,
                        &w.paths,
                        &w.plans,
                        chain.return_object.as_deref(),
                        table,
                    )?;
                    if !assembled.hoisted_params.is_empty() {
                        hoisted_report.push((
                            tm.name.clone(),
                            assembled
                                .hoisted_params
                                .iter()
                                .map(|p| p.name.clone())
                                .collect(),
                        ));
                    }
                    chain_methods.push(tm.name.clone());
                    class.methods.push(assembled.method);
                }
                None => {
                    // Plain helper method: glue code only.
                    let mut m = MethodDecl::new(tm.name.clone(), tm.return_type.clone());
                    m.params = tm.params.clone();
                    m.body = tm.pre_statements.clone();
                    m.body.extend(tm.post_statements.clone());
                    class.methods.push(m);
                }
            }
        }

        let usage = template_usage(&class, &chain_methods, table);
        let unit = CompilationUnit::new(template.package.clone())
            .class(class)
            .class(usage);

        if !self.options.skip_type_check {
            // The template class itself must be constructible inside the
            // unit (templateUsage instantiates it with the default ctor).
            let mut check_table = table.clone();
            check_table.add(ClassDef::new(template.class_name.clone()).ctor(vec![]));
            check_unit(&unit, &check_table).map_err(|e| GenError::TypeCheck(e.to_string()))?;
        }

        let java_source = print_unit(&unit);
        // Close the span first, so the record the result carries
        // includes this phase.
        drop(assemble_span);
        Ok(Generated {
            unit,
            java_source,
            hoisted: hoisted_report,
            record: *record,
        })
    }
}

/// Generates code for `template` with default options: shorthand for
/// `Generator::new().generate_uncached(…)`.
///
/// # Errors
///
/// See [`Generator::generate_uncached`].
pub fn generate(
    template: &Template,
    rules: &crysl::RuleSet,
    table: &TypeTable,
) -> Result<Generated, GenError> {
    Generator::new().generate_uncached(template, rules, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{CrySlCodeGenerator, TemplateMethod};
    use javamodel::ast::{Expr, JavaType, Stmt};
    use javamodel::jca::jca_type_table;

    /// The paper's running example: Figure 4 in, Figure 5 out.
    fn pbe_template() -> Template {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("java.security.SecureRandom")
            .add_parameter("salt", "out")
            .consider_crysl_rule("javax.crypto.spec.PBEKeySpec")
            .add_parameter("pwd", "password")
            .consider_crysl_rule("javax.crypto.SecretKeyFactory")
            .consider_crysl_rule("javax.crypto.SecretKey")
            .consider_crysl_rule("javax.crypto.spec.SecretKeySpec")
            .add_return_object("encryptionKey")
            .build();
        let method = TemplateMethod::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::char_array(), "pwd")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ))
            .pre(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKey"),
                "encryptionKey",
                Expr::null(),
            ))
            .chain(chain)
            .post(Stmt::Return(Some(Expr::var("encryptionKey"))));
        Template::new("de.crypto.cognicrypt", "TemplateClass").method(method)
    }

    #[test]
    fn generates_paper_figure_5() {
        let generated = generate(
            &pbe_template(),
            &rules::open(rules::PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .unwrap();
        let src = &generated.java_source;
        // The structure of Figure 5:
        assert!(
            src.contains("SecureRandom secureRandom = SecureRandom.getInstance(\"SHA1PRNG\");"),
            "{src}"
        );
        assert!(src.contains("secureRandom.nextBytes(salt);"), "{src}");
        assert!(
            src.contains("new PBEKeySpec(pwd, salt, 10000, 128)"),
            "{src}"
        );
        assert!(
            src.contains("SecretKeyFactory.getInstance(\"PBKDF2WithHmacSHA256\")"),
            "{src}"
        );
        assert!(src.contains(".generateSecret(pBEKeySpec)"), "{src}");
        assert!(src.contains(".getEncoded()"), "{src}");
        assert!(
            src.contains("new SecretKeySpec(keyMaterial, \"AES\")"),
            "{src}"
        );
        // clearPassword is deferred to just before the return.
        let clear_pos = src
            .find("pBEKeySpec.clearPassword();")
            .expect("clearPassword present");
        let spec_pos = src
            .find("new SecretKeySpec")
            .expect("SecretKeySpec present");
        assert!(clear_pos > spec_pos, "clearPassword must come last:\n{src}");
        // templateUsage showcase exists and hoists the password parameter.
        assert!(src.contains("public class OutputClass"), "{src}");
        assert!(src.contains("templateUsage(char[] pwd)"), "{src}");
        // Nothing needed the fallback.
        assert!(generated.hoisted.is_empty());
    }

    #[test]
    fn generated_code_type_checks_by_construction() {
        // generate() ran check_unit internally; re-run explicitly.
        let generated = generate(
            &pbe_template(),
            &rules::open(rules::PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .unwrap();
        let mut table = jca_type_table();
        table.add(ClassDef::new("TemplateClass").ctor(vec![]));
        javamodel::typecheck::check_unit(&generated.unit, &table).unwrap();
    }

    #[test]
    fn unknown_rule_surfaces() {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("javax.crypto.NoSuchRule")
            .build();
        let t =
            Template::new("p", "C").method(TemplateMethod::new("go", JavaType::Void).chain(chain));
        assert!(matches!(
            generate(
                &t,
                &rules::open(rules::PackSource::Embedded).unwrap().rules,
                &jca_type_table()
            ),
            Err(GenError::UnknownRule(_))
        ));
    }

    #[test]
    fn own_return_feeds_a_later_call_on_both_paths() {
        use crate::telemetry::ResolutionKind;
        use crate::GenEngine;

        let mut rules = crysl::RuleSet::new();
        rules
            .add_source(
                "SPEC java.security.MessageDigest\nOBJECTS java.lang.String alg; byte[] input; byte[] output;\nEVENTS g1: getInstance(alg); d1: output = digest(input); u1: update(output);\nORDER g1, d1, u1\nCONSTRAINTS alg in {\"SHA-256\"};",
            )
            .unwrap();
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("java.security.MessageDigest")
            .add_parameter("data", "input")
            .build();
        let template = Template::new("p", "Hasher").method(
            TemplateMethod::new("hash", JavaType::Void)
                .param(JavaType::byte_array(), "data")
                .chain(chain),
        );

        let cold = Generator::new()
            .generate_uncached(&template, &rules, &jca_type_table())
            .unwrap();
        let engine = GenEngine::builder()
            .rules(rules)
            .type_table(jca_type_table())
            .build()
            .unwrap();
        let warm = engine.generate(&template).unwrap();

        let src = &cold.java_source;
        assert!(
            src.contains("byte[] output = messageDigest.digest(data);"),
            "{src}"
        );
        assert!(src.contains("messageDigest.update(output);"), "{src}");
        assert_eq!(warm.java_source, cold.java_source);
        // `update(output)` takes the value `digest` returned: the one
        // own-return resolution, recorded by the resolve phase of both
        // paths.
        for generated in [&cold, &warm] {
            assert_eq!(
                generated.record.resolved(ResolutionKind::OwnReturn),
                1,
                "{:?}",
                generated.record
            );
            assert_eq!(generated.record.phase(Phase::Resolve).spans, 1);
        }
    }

    #[test]
    fn helper_methods_pass_through() {
        let t = Template::new("p", "C").method(
            TemplateMethod::new("helper", JavaType::Int).post(Stmt::Return(Some(Expr::int(7)))),
        );
        let generated = generate(
            &t,
            &rules::open(rules::PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
        )
        .unwrap();
        assert!(generated.java_source.contains("public int helper() {"));
        // Helper methods are not called from templateUsage.
        assert!(!generated.java_source.contains(".helper("));
    }
}
