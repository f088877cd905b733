//! Step 4 of the pipeline: resolving values for rule variables
//! (paper Fig. 6, step 4).
//!
//! For each variable method parameter the generator tries, in order:
//!
//! 1. a template binding (`addParameter`),
//! 2. an object generated earlier that carries the required predicate
//!    (a [`Link`]),
//! 3. a value produced by an earlier event of the same rule (a bound
//!    return variable),
//! 4. a secure value derived from the rule's CONSTRAINTS — the first
//!    literal of an `in {…}` set, or the boundary value of a comparison,
//! 5. otherwise the parameter is *hoisted* into the wrapper method's
//!    signature (the paper's compilability-over-completeness fallback).
//!
//! A `this` parameter is the rule's own instance, which the assembler
//! emits directly.
//!
//! The walk over a path's parameters exists once, in [`resolve_path`]:
//! it visits every variable parameter in call order, with the return
//! variables of earlier events visible to later ones. Path selection
//! ranks candidates by the walk's hoists; the resolve phase runs it once
//! per selected path through [`plan_path`], whose per-rule plan (one
//! [`Resolution`] per visited parameter) is both what the phase reports
//! and what the assembler emits as arguments.

use crysl::ast::{Atom, CmpOp, Constraint, Literal, TypeRef};
use javamodel::ast::JavaType;
use javamodel::TypeTable;

use crate::collect::CollectedRule;
use crate::link::{Carrier, Link, LinkSetExt};
use crate::telemetry::{GenRecord, ResolutionKind};

/// How a rule variable obtains its value in the generated code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Bound to a template variable by `addParameter`.
    TemplateVar(String),
    /// Supplied by a predicate link from an earlier rule.
    Linked {
        /// Index of the producing rule.
        from_rule: usize,
        /// Carrier of the ensured predicate in the producing rule.
        from_carrier: Carrier,
    },
    /// Bound by an earlier event of the same rule (`key = generateSecret(..)`).
    OwnReturn,
    /// A literal derived from CONSTRAINTS.
    Value(Literal),
    /// Unresolvable — hoist into the wrapper signature.
    Hoist,
}

/// Converts a CrySL type reference into a modelled Java type.
pub fn java_type_of(ty: &TypeRef) -> JavaType {
    let base = match ty.name.as_str() {
        "int" => JavaType::Int,
        "long" => JavaType::Long,
        "boolean" => JavaType::Boolean,
        "char" => JavaType::Char,
        "byte" => JavaType::Byte,
        other => JavaType::Class(other.to_owned()),
    };
    (0..ty.array_dims).fold(base, |t, _| JavaType::Array(Box::new(t)))
}

/// The static Java type of rule variable `var` of rule `idx`, as far as the
/// generator can tell: template binding type, the producing rule's type for
/// linked variables, or the OBJECTS declaration.
pub fn static_type_of(
    idx: usize,
    var: &str,
    rules: &[CollectedRule<'_>],
    links: &[Link],
) -> Option<JavaType> {
    let cr = &rules[idx];
    if let Some(ty) = cr.bound_type(var) {
        return Some(ty.clone());
    }
    if let Some(link) = links.producer_for(idx, &Carrier::Var(var.to_owned())) {
        let producer = &rules[link.from_rule];
        return match &link.from_carrier {
            Carrier::This => Some(JavaType::class(producer.rule.class_name.as_str())),
            Carrier::Var(v) => producer.rule.object(v).map(|o| java_type_of(&o.ty)),
        };
    }
    cr.rule.object(var).map(|o| java_type_of(&o.ty))
}

/// Derives a secure literal for `var` from the rule's CONSTRAINTS section:
/// the first applicable constraint wins, with implications evaluated
/// against the statically known types (`instanceof`) or resolved literals.
pub fn constraint_value(
    idx: usize,
    var: &str,
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
) -> Option<Literal> {
    let rule = rules[idx].rule;
    for c in &rule.constraints {
        if let Some(v) = constraint_value_in(c, idx, var, rules, links, table) {
            return Some(v);
        }
    }
    None
}

fn constraint_value_in(
    c: &Constraint,
    idx: usize,
    var: &str,
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
) -> Option<Literal> {
    match c {
        Constraint::In { var: v, choices } if v == var => choices.first().cloned(),
        Constraint::Cmp { left, op, right } => cmp_value(left, *op, right, var),
        Constraint::Implies {
            antecedent,
            consequent,
        } => {
            if antecedent_holds(antecedent, idx, rules, links, table) {
                constraint_value_in(consequent, idx, var, rules, links, table)
            } else {
                None
            }
        }
        Constraint::And(a, b) => constraint_value_in(a, idx, var, rules, links, table)
            .or_else(|| constraint_value_in(b, idx, var, rules, links, table)),
        _ => None,
    }
}

/// The closest value satisfying `var op lit` (or `lit op var`), for
/// integer comparisons — the paper's "closest value that satisfies this
/// constraint" (10,000 for `iterationCount >= 10000`).
fn cmp_value(left: &Atom, op: CmpOp, right: &Atom, var: &str) -> Option<Literal> {
    let (is_var_left, lit) = match (left, right) {
        (Atom::Var(v), Atom::Lit(l)) if v == var => (true, l),
        (Atom::Lit(l), Atom::Var(v)) if v == var => (false, l),
        _ => return None,
    };
    match lit {
        Literal::Int(n) => {
            // Normalize `lit op var` to `var op' lit`.
            let op = if is_var_left { op } else { flip(op) };
            let value = match op {
                CmpOp::Ge | CmpOp::Le | CmpOp::Eq => *n,
                CmpOp::Gt => n + 1,
                CmpOp::Lt => n - 1,
                CmpOp::Ne => n + 1,
            };
            Some(Literal::Int(value))
        }
        other => match op {
            CmpOp::Eq => Some(other.clone()),
            _ => None,
        },
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
    }
}

/// Statically evaluates an implication guard. `instanceof` checks use the
/// modelled subtype graph; other constraints evaluate only when every
/// operand resolves to a literal. Unknown guards count as *not holding* —
/// the generator must never pick a value it cannot justify.
pub fn antecedent_holds(
    c: &Constraint,
    idx: usize,
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
) -> bool {
    match c {
        Constraint::InstanceOf { var, java_type } => {
            let Some(ty) = static_type_of(idx, var, rules, links) else {
                return false;
            };
            match ty.class_name() {
                Some(cls) => table.is_subclass_of(cls, java_type.as_str()),
                None => false,
            }
        }
        Constraint::And(a, b) => {
            antecedent_holds(a, idx, rules, links, table)
                && antecedent_holds(b, idx, rules, links, table)
        }
        Constraint::Or(a, b) => {
            antecedent_holds(a, idx, rules, links, table)
                || antecedent_holds(b, idx, rules, links, table)
        }
        _ => false,
    }
}

/// Resolves rule variable `var` of rule `idx` for a path whose earlier
/// events bind the return variables in `own_returns`.
///
/// Instance resolution is handled separately, by path selection and the
/// assembler.
fn resolve_var(
    idx: usize,
    var: &str,
    own_returns: &[&str],
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
) -> Resolution {
    if let Some(tv) = rules[idx].bound_template_var(var) {
        return Resolution::TemplateVar(tv.to_owned());
    }
    if let Some(link) = links.producer_for(idx, &Carrier::Var(var.to_owned())) {
        return Resolution::Linked {
            from_rule: link.from_rule,
            from_carrier: link.from_carrier.clone(),
        };
    }
    if own_returns.contains(&var) {
        return Resolution::OwnReturn;
    }
    if let Some(lit) = constraint_value(idx, var, rules, links, table) {
        return Resolution::Value(lit);
    }
    Resolution::Hoist
}

impl Resolution {
    /// The telemetry discriminant of this resolution.
    pub fn kind(&self) -> ResolutionKind {
        match self {
            Resolution::TemplateVar(_) => ResolutionKind::Template,
            Resolution::Linked { .. } => ResolutionKind::Linked,
            Resolution::OwnReturn => ResolutionKind::OwnReturn,
            Resolution::Value(_) => ResolutionKind::Constraint,
            Resolution::Hoist => ResolutionKind::Hoist,
        }
    }
}

/// The one resolution walk: visits every variable parameter of rule
/// `idx`'s events along `path` in call order and hands each
/// `(event label, rule variable, resolution)` to `visit`. The return
/// variables of earlier events are visible to later ones, so a parameter
/// bound by an earlier call resolves as [`Resolution::OwnReturn`].
pub fn resolve_path(
    idx: usize,
    path: &[String],
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
    mut visit: impl FnMut(&str, &str, Resolution),
) {
    let rule = rules[idx].rule;
    let mut own_returns: Vec<&str> = Vec::new();
    for label in path {
        let Some(m) = rule.method_event(label) else {
            continue;
        };
        for p in &m.params {
            if let crysl::ast::ParamPattern::Var(v) = p {
                let r = resolve_var(idx, v, &own_returns, rules, links, table);
                visit(label, v, r);
            }
        }
        if let Some(rv) = &m.return_var {
            own_returns.push(rv);
        }
    }
}

/// The resolution plan of rule `idx` along its selected `path`: one
/// [`Resolution`] per variable parameter, in [`resolve_path`] order —
/// the order in which the assembler fills arguments. Each entry's
/// [`ResolutionKind`] is counted in `record` as it is planned.
pub fn plan_path(
    idx: usize,
    path: &[String],
    rules: &[CollectedRule<'_>],
    links: &[Link],
    table: &TypeTable,
    record: &mut GenRecord,
) -> Vec<Resolution> {
    let mut plan = Vec::new();
    resolve_path(idx, path, rules, links, table, |_, _, r| {
        record.resolutions[r.kind().index()] += 1;
        plan.push(r);
    });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect;
    use crate::link::link;
    use crate::template::{CrySlCodeGenerator, GeneratorChain, TemplateMethod};
    use crysl::RuleSet;
    use javamodel::jca::jca_type_table;

    fn setup(
        srcs: &[&str],
        chain: GeneratorChain,
        method: &TemplateMethod,
    ) -> (RuleSet, GeneratorChain, TemplateMethod) {
        let mut set = RuleSet::new();
        for s in srcs {
            set.add_source(s).unwrap();
        }
        (set, chain, method.clone())
    }

    #[test]
    fn java_type_conversion() {
        assert_eq!(java_type_of(&TypeRef::scalar("int")), JavaType::Int);
        assert_eq!(
            java_type_of(&TypeRef::array("char")),
            JavaType::char_array()
        );
        assert_eq!(
            java_type_of(&TypeRef::scalar("java.lang.String")),
            JavaType::string()
        );
    }

    #[test]
    fn cmp_boundaries() {
        use crysl::ast::Literal::Int;
        let v = |op| cmp_value(&Atom::Var("x".into()), op, &Atom::Lit(Int(10)), "x");
        assert_eq!(v(CmpOp::Ge), Some(Int(10)));
        assert_eq!(v(CmpOp::Gt), Some(Int(11)));
        assert_eq!(v(CmpOp::Le), Some(Int(10)));
        assert_eq!(v(CmpOp::Lt), Some(Int(9)));
        assert_eq!(v(CmpOp::Eq), Some(Int(10)));
        // Flipped form: `10 <= x` means `x >= 10`.
        assert_eq!(
            cmp_value(&Atom::Lit(Int(10)), CmpOp::Le, &Atom::Var("x".into()), "x"),
            Some(Int(10))
        );
    }

    #[test]
    fn in_constraint_picks_first_choice() {
        let (set, chain, method) = setup(
            &["SPEC a.X\nOBJECTS java.lang.String alg;\nEVENTS g: getInstance(alg);\nCONSTRAINTS alg in {\"AES\", \"DES\"};"],
            CrySlCodeGenerator::get_instance().consider_crysl_rule("a.X").build(),
            &TemplateMethod::new("go", JavaType::Void),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        assert_eq!(
            constraint_value(0, "alg", &rules, &links, &jca_type_table()),
            Some(Literal::Str("AES".into()))
        );
    }

    #[test]
    fn instanceof_guard_selects_branch_by_linked_type() {
        // A produces a SecretKeySpec; B's `alg` choice is guarded by the
        // static type of `key`.
        let (set, chain, method) = setup(
            &[
                "SPEC javax.crypto.spec.SecretKeySpec\nEVENTS c: SecretKeySpec();\nENSURES generatedKey[this];",
                "SPEC a.B\nOBJECTS java.security.Key key; java.lang.String t;\nEVENTS i: init(key, t);\nCONSTRAINTS instanceof[key, javax.crypto.SecretKey] => t in {\"SYM\"}; instanceof[key, java.security.PublicKey] => t in {\"ASYM\"};\nREQUIRES generatedKey[key];",
            ],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("javax.crypto.spec.SecretKeySpec")
                .consider_crysl_rule("a.B")
                .build(),
            &TemplateMethod::new("go", JavaType::Void),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        assert_eq!(
            static_type_of(1, "key", &rules, &links),
            Some(JavaType::class("javax.crypto.spec.SecretKeySpec"))
        );
        assert_eq!(
            constraint_value(1, "t", &rules, &links, &jca_type_table()),
            Some(Literal::Str("SYM".into()))
        );
    }

    #[test]
    fn resolution_order_template_first() {
        let (set, chain, method) = setup(
            &[
                "SPEC a.P\nOBJECTS byte[] o;\nEVENTS e: f(o);\nENSURES p[o];",
                "SPEC a.C\nOBJECTS byte[] x;\nEVENTS e: g(x);\nCONSTRAINTS x == x;\nREQUIRES p[x];",
            ],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("a.P")
                .consider_crysl_rule("a.C")
                .add_parameter("data", "x")
                .build(),
            &TemplateMethod::new("go", JavaType::Void).param(JavaType::byte_array(), "data"),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        // Template binding beats the predicate link.
        assert_eq!(
            resolve_var(1, "x", &[], &rules, &links, &jca_type_table()),
            Resolution::TemplateVar("data".into())
        );
    }

    #[test]
    fn unresolvable_falls_back_to_hoist() {
        let (set, chain, method) = setup(
            &["SPEC a.X\nOBJECTS byte[] data;\nEVENTS e: use(data);"],
            CrySlCodeGenerator::get_instance()
                .consider_crysl_rule("a.X")
                .build(),
            &TemplateMethod::new("go", JavaType::Void),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        assert_eq!(
            resolve_var(0, "data", &[], &rules, &links, &jca_type_table()),
            Resolution::Hoist
        );
    }

    #[test]
    fn walk_visits_params_in_call_order_with_earlier_returns_visible() {
        let (set, chain, method) = setup(
            &["SPEC a.X\nOBJECTS byte[] out; byte[] data;\nEVENTS e1: use(out); e2: out = make(data); e3: use(out);\nORDER e1, e2, e3"],
            CrySlCodeGenerator::get_instance().consider_crysl_rule("a.X").build(),
            &TemplateMethod::new("go", JavaType::Void),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        let path: Vec<String> = ["e1", "e2", "e3"].map(String::from).to_vec();
        let mut seen = Vec::new();
        resolve_path(
            0,
            &path,
            &rules,
            &links,
            &jca_type_table(),
            |label, var, r| {
                seen.push((label.to_owned(), var.to_owned(), r));
            },
        );
        let step = |l: &str, v: &str, r| (l.to_owned(), v.to_owned(), r);
        assert_eq!(
            seen,
            vec![
                // `out` is not bound yet at its first use.
                step("e1", "out", Resolution::Hoist),
                step("e2", "data", Resolution::Hoist),
                step("e3", "out", Resolution::OwnReturn),
            ]
        );
    }

    #[test]
    fn own_return_resolves() {
        let (set, chain, method) = setup(
            &["SPEC a.X\nOBJECTS byte[] out;\nEVENTS e1: out = make(); e2: use(out);\nORDER e1, e2"],
            CrySlCodeGenerator::get_instance().consider_crysl_rule("a.X").build(),
            &TemplateMethod::new("go", JavaType::Void),
        );
        let rules = collect(&chain, &method, &set).unwrap();
        let links = link(&rules);
        assert_eq!(
            resolve_var(0, "out", &["out"], &rules, &links, &jca_type_table()),
            Resolution::OwnReturn
        );
    }
}
