//! Step 3 of the pipeline: selecting a method sequence per rule
//! (paper Fig. 6, step 3).
//!
//! Each rule's `ORDER` pattern is compiled into a state machine and its
//! accepting paths enumerated ([`statemachine::paths`]). The paper's
//! filters then apply:
//!
//! * paths that do not use every template-bound object are eliminated,
//! * paths that cannot grant the predicates other considered rules rely on
//!   are eliminated,
//! * paths with unresolvable parameters are eliminated (unless *every*
//!   path has unresolvable parameters, in which case the best path wins
//!   and the leftovers are hoisted into the wrapper signature). A
//!   candidate's unresolved parameters are the hoists of the one
//!   resolution walk, [`crate::resolve::resolve_path`].
//!
//! Of the survivors, the shortest path — fewest calls, then fewest
//! parameters — is selected.

use crysl::ast::{ParamPattern, Rule};
use statemachine::paths::{enumerate, PathLimit};
use statemachine::{CacheLookup, OrderCache};

use crate::collect::CollectedRule;
use crate::error::GenError;
use crate::link::{Carrier, Link, LinkSetExt};
use crate::resolve::{resolve_path, Resolution};
use crate::telemetry::GenRecord;
use javamodel::TypeTable;

/// Where a rule's instance object comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceSource {
    /// A constructor call in the selected path creates it.
    Constructed,
    /// A static factory call in the selected path creates it
    /// (`getInstance`).
    Factory,
    /// A predicate link supplies it from an earlier rule.
    Linked {
        /// Index of the producing rule.
        from_rule: usize,
        /// Carrier in the producing rule.
        from_carrier: Carrier,
    },
}

/// A candidate path with its unresolved (to-hoist) parameters.
type Candidate = (Vec<String>, Vec<(String, String)>);

/// The outcome of path selection for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectedPath {
    /// Event labels in call order.
    pub labels: Vec<String>,
    /// `(event_label, rule_var)` pairs that could not be resolved and must
    /// be hoisted into the wrapper signature (normally empty).
    pub hoisted: Vec<(String, String)>,
    /// How the instance object is obtained.
    pub instance: InstanceSource,
}

/// Tuning knobs for path selection; the defaults reproduce the paper, the
/// alternatives exist for the ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct SelectionOptions {
    /// Eliminate paths missing template-bound objects (paper filter).
    pub filter_template_bindings: bool,
    /// Eliminate paths that cannot grant required predicates (paper filter).
    pub filter_predicates: bool,
    /// Pick the shortest surviving path (paper tie-break); otherwise the
    /// longest survivor is taken.
    pub prefer_shortest: bool,
    /// Allow hoisting unresolvable parameters instead of failing.
    pub fallback_hoisting: bool,
}

impl Default for SelectionOptions {
    fn default() -> Self {
        SelectionOptions {
            filter_template_bindings: true,
            filter_predicates: true,
            prefer_shortest: true,
            fallback_hoisting: true,
        }
    }
}

/// Selects the call sequence for rule `idx`.
///
/// `return_type`, when given, adds a requirement: the path must be able
/// to produce a value assignable to it (the last rule of a chain with an
/// `addReturnObject` nomination). When `cache` is provided, the rule's
/// enumerated paths come from the compiled-ORDER cache (compiled on
/// first sight) instead of a fresh NFA → DFA → enumeration run.
/// `record` receives how the compiled-ORDER artefact was obtained and,
/// once a path is chosen, the selection's candidate and hoist counts.
///
/// # Errors
///
/// [`GenError::NoViablePath`] when every enumerated path fails a hard
/// filter, [`GenError::UnresolvedInstance`] when the rule's instance has no
/// producer, [`GenError::UnresolvedParameter`] when hoisting is disabled
/// and a parameter stays unresolved, and [`GenError::StateMachine`] for
/// enumeration failures.
#[allow(clippy::too_many_arguments)]
pub fn select_path(
    idx: usize,
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
    options: &SelectionOptions,
    return_type: Option<&javamodel::ast::JavaType>,
    cache: Option<&OrderCache>,
    record: &mut GenRecord,
) -> Result<SelectedPath, GenError> {
    let cr = &rules[idx];
    let rule = cr.rule;
    let compiled;
    let enumerated;
    let paths: &[Vec<String>] = match cache {
        Some(c) => {
            let (artefact, lookup) = c.get_or_compile_traced(rule)?;
            compiled = artefact;
            match lookup {
                CacheLookup::Hit => record.cache_hits += 1,
                CacheLookup::Miss => record.cache_misses += 1,
            }
            record.dfa_states.observe(compiled.dfa.state_count() as u64);
            &compiled.paths
        }
        None => {
            enumerated = enumerate(rule, PathLimit::default())?;
            record.cache_uncached += 1;
            &enumerated
        }
    };
    let enumerated_count = paths.len() as u64;
    record.accepting_paths.observe(enumerated_count);

    let mut survivors: Vec<Candidate> = Vec::new();
    let mut with_hoists: Vec<Candidate> = Vec::new();
    let mut last_reason = String::from("ORDER pattern has no accepting path");

    for path in paths {
        if options.filter_template_bindings {
            if let Some(missing) = missing_binding(cr, path) {
                last_reason = format!("path omits template-bound object `{missing}`");
                continue;
            }
            if let Some(expected) = return_type {
                if !can_produce(rule, path, expected, table) {
                    last_reason = format!(
                        "path produces no value assignable to the return object (`{expected}`)"
                    );
                    continue;
                }
            }
        }
        if options.filter_predicates {
            if let Some(reason) = predicate_gap(idx, rule, path, links) {
                last_reason = reason;
                continue;
            }
            if let Some(reason) = incoming_gap(idx, rule, path, links) {
                last_reason = reason;
                continue;
            }
        }
        let mut hoists: Vec<(String, String)> = Vec::new();
        resolve_path(idx, path, rules, links, table, |label, var, r| {
            if r == Resolution::Hoist && !hoists.iter().any(|(_, v)| v == var) {
                hoists.push((label.to_owned(), var.to_owned()));
            }
        });
        if hoists.is_empty() {
            survivors.push((path.clone(), hoists));
        } else {
            with_hoists.push((path.clone(), hoists));
        }
    }

    let pick = |mut candidates: Vec<Candidate>| {
        // `enumerate` returns shortest-first; refine by parameter count.
        candidates.sort_by_key(|(p, _)| (p.len(), param_count(rule, p)));
        if options.prefer_shortest {
            candidates.into_iter().next()
        } else {
            candidates.into_iter().last()
        }
    };

    let chosen = if let Some(best) = pick(survivors) {
        best
    } else if options.fallback_hoisting {
        // Prefer the path with the fewest hoisted parameters.
        let mut cands = with_hoists;
        cands.sort_by_key(|(p, h)| (h.len(), p.len(), param_count(rule, p)));
        cands
            .into_iter()
            .next()
            .ok_or_else(|| GenError::NoViablePath {
                rule: rule.class_name.to_string(),
                reason: last_reason.clone(),
            })?
    } else if let Some((_, hoists)) = with_hoists.first() {
        let (_, var) = hoists.first().expect("non-empty hoist list");
        return Err(GenError::UnresolvedParameter {
            rule: rule.class_name.to_string(),
            variable: var.clone(),
        });
    } else {
        return Err(GenError::NoViablePath {
            rule: rule.class_name.to_string(),
            reason: last_reason,
        });
    };

    let instance = instance_source(idx, rule, &chosen.0, links, table)?;
    record.selections += 1;
    record.candidates.observe(enumerated_count);
    record.hoisted_params += chosen.1.len() as u64;
    Ok(SelectedPath {
        labels: chosen.0,
        hoisted: chosen.1,
        instance,
    })
}

/// Total number of parameters across the path's events.
fn param_count(rule: &Rule, path: &[String]) -> usize {
    path.iter()
        .filter_map(|l| rule.method_event(l))
        .map(|m| m.params.len())
        .sum()
}

/// A template-bound rule variable that the path never touches, if any.
fn missing_binding(cr: &CollectedRule<'_>, path: &[String]) -> Option<String> {
    cr.bindings
        .iter()
        .find(|b| !path_uses_var(cr.rule, path, &b.rule_var))
        .map(|b| b.rule_var.clone())
}

/// Whether some event of the path takes or returns `var`.
fn path_uses_var(rule: &Rule, path: &[String], var: &str) -> bool {
    path.iter().filter_map(|l| rule.method_event(l)).any(|m| {
        m.return_var.as_deref() == Some(var)
            || m.params
                .iter()
                .any(|p| matches!(p, ParamPattern::Var(v) if v == var))
    })
}

/// Checks the outgoing predicate obligations of rule `idx` against `path`:
/// each link consumed by a later rule needs its `after` anchor in the path
/// and its carrier value produced by the path. Returns a reason when the
/// path cannot grant some predicate.
fn predicate_gap(idx: usize, rule: &Rule, path: &[String], links: &[Link]) -> Option<String> {
    for l in links.outgoing(idx) {
        if let Some(after) = &l.from_after {
            let anchors: Vec<&str> = rule
                .resolve_label(after)
                .iter()
                .map(|m| m.label.as_str())
                .collect();
            let hit = path.iter().any(|p| anchors.contains(&p.as_str()));
            if !hit {
                return Some(format!(
                    "path cannot grant `{}` (missing event `{after}`)",
                    l.predicate
                ));
            }
        }
        if let Carrier::Var(v) = &l.from_carrier {
            if !path_uses_var(rule, path, v) {
                return Some(format!(
                    "path never produces `{v}`, carrier of `{}`",
                    l.predicate
                ));
            }
        }
    }
    None
}

/// Whether a path can produce a value assignable to `expected`: a return
/// variable of one of its events, or the rule's instance.
fn can_produce(
    rule: &Rule,
    path: &[String],
    expected: &javamodel::ast::JavaType,
    table: &TypeTable,
) -> bool {
    let instance_ty = javamodel::ast::JavaType::class(rule.class_name.as_str());
    if table.is_assignable(&instance_ty, expected) {
        return true;
    }
    path.iter()
        .filter_map(|l| rule.method_event(l))
        .filter_map(|m| m.return_var.as_ref())
        .filter_map(|rv| rule.object(rv))
        .any(|o| table.is_assignable(&crate::resolve::java_type_of(&o.ty), expected))
}

/// Checks the *incoming* predicate obligations: "for the class that
/// requires the predicate, CogniCryptGEN picks method sequences that make
/// use of the predicate" (paper §3.3). A path that never touches the
/// linked object cannot be the intended use — e.g. when an
/// `IvParameterSpec` rule is considered, `Cipher` must select the `init`
/// overload that consumes it.
fn incoming_gap(idx: usize, rule: &Rule, path: &[String], links: &[Link]) -> Option<String> {
    for l in links.incoming(idx) {
        if let Carrier::Var(v) = &l.to_carrier {
            if !path_uses_var(rule, path, v) {
                return Some(format!(
                    "path ignores `{v}`, which carries linked predicate `{}`",
                    l.predicate
                ));
            }
        }
    }
    None
}

/// Determines where the rule's instance comes from.
fn instance_source(
    idx: usize,
    rule: &Rule,
    path: &[String],
    links: &[Link],
    table: &TypeTable,
) -> Result<InstanceSource, GenError> {
    let simple = rule.class_name.simple_name();
    let class = table
        .class(rule.class_name.as_str())
        .ok_or_else(|| GenError::UnknownClass(rule.class_name.to_string()))?;
    for label in path {
        let Some(m) = rule.method_event(label) else {
            continue;
        };
        if m.is_constructor_of(simple) {
            return Ok(InstanceSource::Constructed);
        }
        let is_factory = class
            .methods
            .iter()
            .any(|sig| sig.name == m.method_name && sig.is_static);
        if is_factory {
            return Ok(InstanceSource::Factory);
        }
    }
    if let Some(link) = links.producer_for(idx, &Carrier::This) {
        return Ok(InstanceSource::Linked {
            from_rule: link.from_rule,
            from_carrier: link.from_carrier.clone(),
        });
    }
    Err(GenError::UnresolvedInstance {
        rule: rule.class_name.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use crate::link::link;
    use crate::template::{CrySlCodeGenerator, TemplateMethod};
    use crysl::RuleSet;
    use javamodel::ast::JavaType;
    use javamodel::jca::jca_type_table;

    fn select_for(
        srcs: &[&str],
        chain: crate::template::GeneratorChain,
        method: TemplateMethod,
        idx: usize,
    ) -> Result<SelectedPath, GenError> {
        let mut set = RuleSet::new();
        for s in srcs {
            set.add_source(s).unwrap();
        }
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        let uncached = select_path(
            idx,
            &rules,
            &links,
            &jca_type_table(),
            &SelectionOptions::default(),
            None,
            None,
            &mut GenRecord::default(),
        );
        // The cached path must be observably identical to the cold path.
        let cache = OrderCache::new();
        let cached = select_path(
            idx,
            &rules,
            &links,
            &jca_type_table(),
            &SelectionOptions::default(),
            None,
            Some(&cache),
            &mut GenRecord::default(),
        );
        match (&uncached, &cached) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "cache changed path selection"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("cache changed the outcome: {a:?} vs {b:?}"),
        }
        uncached
    }

    #[test]
    fn pbekeyspec_selects_the_single_paper_path() {
        let path = select_for(
            &[rules_pbe().as_str()],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("javax.crypto.spec.PBEKeySpec")
                .add_parameter("pwd", "password")
                .add_parameter("saltBytes", "salt")
                .build(),
            TemplateMethod::new("go", JavaType::Void)
                .param(JavaType::char_array(), "pwd")
                .param(JavaType::byte_array(), "saltBytes"),
            0,
        )
        .unwrap();
        assert_eq!(path.labels, vec!["c1", "cP"]);
        assert!(path.hoisted.is_empty());
        assert_eq!(path.instance, InstanceSource::Constructed);
    }

    fn rules_pbe() -> String {
        "SPEC javax.crypto.spec.PBEKeySpec\nOBJECTS char[] password; byte[] salt; int iterationCount; int keylength;\nEVENTS c1: PBEKeySpec(password, salt, iterationCount, keylength); cP: clearPassword();\nORDER c1, cP\nCONSTRAINTS iterationCount >= 10000; keylength in {128, 256};".to_owned()
    }

    #[test]
    fn signature_sign_path_chosen_by_binding_filter() {
        // The `signature` return object binding eliminates the verify path.
        let sig_rule = "SPEC java.security.Signature\nOBJECTS java.lang.String alg; byte[] input; byte[] signature; boolean result;\nEVENTS g1: getInstance(alg); s1: signature = sign(); v1: result = verify(signature); u1: update(input);\nORDER g1, ((u1, s1) | (u1, v1))\nCONSTRAINTS alg in {\"SHA256withRSA\"};";
        let path = select_for(
            &[sig_rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("java.security.Signature")
                .add_parameter("data", "input")
                .add_parameter("sig", "signature")
                .build(),
            TemplateMethod::new("go", JavaType::Void)
                .param(JavaType::byte_array(), "data")
                .param(JavaType::byte_array(), "sig"),
            0,
        )
        .unwrap();
        // Both paths mention `signature`; with the binding on `result`
        // instead, only the verify path survives:
        assert!(path.labels.contains(&"s1".to_owned()) || path.labels.contains(&"v1".to_owned()));

        let verify_path = select_for(
            &[sig_rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("java.security.Signature")
                .add_parameter("data", "input")
                .add_parameter("ok", "result")
                .build(),
            TemplateMethod::new("go", JavaType::Void)
                .param(JavaType::byte_array(), "data")
                .param(JavaType::Boolean, "ok"),
            0,
        )
        .unwrap();
        assert_eq!(verify_path.labels, vec!["g1", "u1", "v1"]);
    }

    #[test]
    fn shortest_path_preferred_among_survivors() {
        let rule = "SPEC java.security.MessageDigest\nOBJECTS java.lang.String alg; byte[] input; byte[] output;\nEVENTS g1: getInstance(alg); u1: update(input); d1: output = digest(input);\nORDER g1, u1?, d1\nCONSTRAINTS alg in {\"SHA-256\"};";
        let path = select_for(
            &[rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("java.security.MessageDigest")
                .add_parameter("data", "input")
                .build(),
            TemplateMethod::new("go", JavaType::Void).param(JavaType::byte_array(), "data"),
            0,
        )
        .unwrap();
        assert_eq!(path.labels, vec!["g1", "d1"]);
        assert_eq!(path.instance, InstanceSource::Factory);
    }

    #[test]
    fn unresolvable_param_hoists_when_no_path_is_clean() {
        let rule = "SPEC java.security.MessageDigest\nOBJECTS java.lang.String alg; byte[] input; byte[] output;\nEVENTS g1: getInstance(alg); d1: output = digest(input);\nORDER g1, d1\nCONSTRAINTS alg in {\"SHA-256\"};";
        let path = select_for(
            &[rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("java.security.MessageDigest")
                .build(),
            TemplateMethod::new("go", JavaType::Void),
            0,
        )
        .unwrap();
        assert_eq!(path.hoisted, vec![("d1".to_owned(), "input".to_owned())]);
    }

    #[test]
    fn missing_instance_is_an_error() {
        // Instance method only, no link, class known: no instance source.
        let rule = "SPEC javax.crypto.SecretKey\nOBJECTS byte[] raw;\nEVENTS e: raw = getEncoded();\nORDER e";
        let err = select_for(
            &[rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("javax.crypto.SecretKey")
                .build(),
            TemplateMethod::new("go", JavaType::Void),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, GenError::UnresolvedInstance { .. }));
    }

    #[test]
    fn unknown_class_is_an_error() {
        let rule = "SPEC not.Modelled\nEVENTS e: go();\nORDER e";
        let err = select_for(
            &[rule],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("not.Modelled")
                .build(),
            TemplateMethod::new("go", JavaType::Void),
            0,
        )
        .unwrap_err();
        assert_eq!(err, GenError::UnknownClass("not.Modelled".into()));
    }
}
