//! Step 5 of the pipeline: assembling Java code (paper Fig. 6, step 5).
//!
//! The assembler walks the selected path of each rule in chain order and
//! emits the corresponding Java statements into the template method:
//! constructor calls, static factory calls and instance calls. Every
//! variable argument takes the next entry of the rule's resolution plan
//! ([`crate::resolve::plan_path`]) unless a value for that variable is
//! already materialized under the rule (a template binding, a hoisted
//! parameter or an earlier event's bound return), which wins. Predicate-
//! invalidating calls (e.g. `clearPassword()`) are deferred to the end of
//! the method, the nominated return object receives the final value, and
//! unresolvable parameters are hoisted into the wrapper signature.
//! Finally, [`template_usage`] produces the showcase method the paper
//! generates alongside every template.

use std::collections::{HashMap, HashSet};

use crysl::ast::{Literal, MethodEvent, ParamPattern, Rule};
use javamodel::ast::{ClassDecl, Expr, JavaType, MethodDecl, Param, Stmt};
use javamodel::TypeTable;

use crate::collect::CollectedRule;
use crate::error::GenError;
use crate::link::Carrier;
use crate::pathsel::{InstanceSource, SelectedPath};
use crate::resolve::{java_type_of, Resolution};
use crate::template::TemplateMethod;

/// The code generated for one template method.
#[derive(Debug, Clone)]
pub struct AssembledMethod {
    /// The complete wrapper method (glue + generated + deferred + glue).
    pub method: MethodDecl,
    /// Parameters hoisted into the signature by the fallback rule.
    pub hoisted_params: Vec<Param>,
}

/// Assembles the generated block for `method` from the selected paths
/// and their resolution plans (`plans[i]` belongs to `paths[i]`).
///
/// # Errors
///
/// Propagates [`GenError`] for producer values the paths failed to
/// materialize (a pipeline invariant violation surfaced as
/// [`GenError::UnresolvedInstance`] / [`GenError::UnresolvedParameter`]).
pub fn assemble(
    method: &TemplateMethod,
    rules: &[CollectedRule<'_>],
    paths: &[SelectedPath],
    plans: &[Vec<Resolution>],
    return_object: Option<&str>,
    table: &TypeTable,
) -> Result<AssembledMethod, GenError> {
    let mut asm = Assembler {
        rules,
        table,
        taken: method
            .params
            .iter()
            .map(|p| p.name.clone())
            .chain(declared_locals(&method.pre_statements))
            .collect(),
        values: HashMap::new(),
        stmts: Vec::new(),
        deferred: Vec::new(),
        hoisted: Vec::new(),
    };

    // Template bindings register their variables as available values.
    for (idx, cr) in rules.iter().enumerate() {
        for b in &cr.bindings {
            asm.values.insert(
                (idx, Carrier::Var(b.rule_var.clone())),
                b.template_var.clone(),
            );
        }
    }

    for (idx, (path, plan)) in paths.iter().zip(plans).enumerate() {
        asm.emit_rule(idx, path, plan)?;
    }

    // Assign the final value to the nominated return object.
    if let Some(ret) = return_object {
        if let Some(last) = paths.len().checked_sub(1) {
            let ret_ty = method.var_type(ret);
            let value = asm.final_value(last, &paths[last], ret_ty)?;
            asm.stmts.push(Stmt::assign(ret, Expr::var(value)));
        }
    }

    let mut body = method.pre_statements.clone();
    body.extend(asm.stmts);
    body.extend(asm.deferred);
    body.extend(method.post_statements.clone());

    let mut m = MethodDecl::new(method.name.clone(), method.return_type.clone());
    m.params = method.params.clone();
    m.params.extend(asm.hoisted.iter().cloned());
    m.body = body;
    Ok(AssembledMethod {
        method: m,
        hoisted_params: asm.hoisted,
    })
}

fn declared_locals(stmts: &[Stmt]) -> Vec<String> {
    stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Decl { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect()
}

struct Assembler<'a> {
    rules: &'a [CollectedRule<'a>],
    table: &'a TypeTable,
    taken: HashSet<String>,
    /// (rule index, carrier) → Java local/parameter name holding the value.
    values: HashMap<(usize, Carrier), String>,
    stmts: Vec<Stmt>,
    deferred: Vec<Stmt>,
    hoisted: Vec<Param>,
}

impl Assembler<'_> {
    fn fresh_name(&mut self, base: &str) -> String {
        let mut name = base.to_owned();
        let mut n = 1;
        while self.taken.contains(&name) {
            n += 1;
            name = format!("{base}{n}");
        }
        self.taken.insert(name.clone());
        name
    }

    fn emit_rule(
        &mut self,
        idx: usize,
        path: &SelectedPath,
        plan: &[Resolution],
    ) -> Result<(), GenError> {
        let cr = &self.rules[idx];
        let rule = cr.rule;
        let class_name = rule.class_name.as_str();
        let simple = rule.class_name.simple_name();

        // Hoisted parameters become wrapper parameters up front so their
        // names are available to argument emission.
        for (_, var) in &path.hoisted {
            if self.values.contains_key(&(idx, Carrier::Var(var.clone()))) {
                continue;
            }
            let ty = object_type(rule, var);
            let name = self.fresh_name(var);
            self.hoisted.push(Param {
                ty,
                name: name.clone(),
            });
            self.values.insert((idx, Carrier::Var(var.clone())), name);
        }

        // The instance: linked instances exist already, constructed ones
        // get their name now and their declaration at the producing event.
        let instance_name = match &path.instance {
            InstanceSource::Linked {
                from_rule,
                from_carrier,
            } => self
                .values
                .get(&(*from_rule, from_carrier.clone()))
                .cloned()
                .ok_or(GenError::UnresolvedInstance {
                    rule: class_name.to_owned(),
                })?,
            InstanceSource::Constructed | InstanceSource::Factory => {
                self.fresh_name(&lower_camel(simple))
            }
        };
        self.values
            .insert((idx, Carrier::This), instance_name.clone());

        let invalidating = invalidating_events(rule, &path.labels);
        let mut plan = plan.iter();

        for label in &path.labels {
            let Some(event) = rule.method_event(label) else {
                continue;
            };
            let args = self.arg_exprs(idx, event, &mut plan)?;
            let stmt = self.emit_event(idx, event, args, &instance_name, simple, class_name)?;
            if invalidating.contains(label.as_str()) {
                self.deferred.push(stmt);
            } else {
                self.stmts.push(stmt);
            }
        }
        Ok(())
    }

    fn arg_exprs(
        &mut self,
        idx: usize,
        event: &MethodEvent,
        plan: &mut std::slice::Iter<'_, Resolution>,
    ) -> Result<Vec<Expr>, GenError> {
        let mut args = Vec::with_capacity(event.params.len());
        for (i, p) in event.params.iter().enumerate() {
            let expr = match p {
                ParamPattern::This => Expr::var(
                    self.values
                        .get(&(idx, Carrier::This))
                        .cloned()
                        .unwrap_or_else(|| "this".to_owned()),
                ),
                ParamPattern::Wildcard => {
                    // A wildcard the path selector let through: hoist it.
                    let name = self.fresh_name(&format!("arg{i}"));
                    self.hoisted.push(Param {
                        ty: JavaType::class("java.lang.Object"),
                        name: name.clone(),
                    });
                    Expr::var(name)
                }
                // A plan shorter than the path leaves the parameter
                // unresolved.
                ParamPattern::Var(v) => {
                    self.var_expr(idx, v, plan.next().unwrap_or(&Resolution::Hoist))?
                }
            };
            args.push(expr);
        }
        Ok(args)
    }

    fn var_expr(&self, idx: usize, var: &str, planned: &Resolution) -> Result<Expr, GenError> {
        // Anything already materialized under this rule wins over the
        // plan (covers template bindings, hoisted parameters, and own
        // returns).
        if let Some(name) = self.values.get(&(idx, Carrier::Var(var.to_owned()))) {
            return Ok(Expr::var(name.clone()));
        }
        let materialized = match planned {
            Resolution::TemplateVar(tv) => Some(tv.clone()),
            Resolution::Linked {
                from_rule,
                from_carrier,
            } => self
                .values
                .get(&(*from_rule, from_carrier.clone()))
                .cloned(),
            Resolution::Value(lit) => return Ok(literal_expr(lit)),
            // An own return that is not materialized, or a hoist that
            // never became a wrapper parameter.
            Resolution::OwnReturn | Resolution::Hoist => None,
        };
        materialized
            .map(Expr::var)
            .ok_or_else(|| GenError::UnresolvedParameter {
                rule: self.rules[idx].rule.class_name.to_string(),
                variable: var.to_owned(),
            })
    }

    fn emit_event(
        &mut self,
        idx: usize,
        event: &MethodEvent,
        args: Vec<Expr>,
        instance_name: &str,
        simple: &str,
        class_name: &str,
    ) -> Result<Stmt, GenError> {
        let class_def = self
            .table
            .class(class_name)
            .ok_or_else(|| GenError::UnknownClass(class_name.to_owned()))?;
        let is_static = class_def
            .methods
            .iter()
            .any(|m| m.name == event.method_name && m.is_static);

        if event.is_constructor_of(simple) {
            let expr = Expr::new_object(class_name, args);
            return Ok(Stmt::decl_init(
                JavaType::class(class_name),
                instance_name,
                expr,
            ));
        }
        if is_static {
            let expr = Expr::static_call(class_name, event.method_name.clone(), args);
            // A static factory returning the class itself materializes the
            // instance; other static calls bind their return variable.
            let ret = class_def
                .methods
                .iter()
                .find(|m| m.name == event.method_name && m.is_static)
                .map(|m| m.ret.clone())
                .unwrap_or(JavaType::Void);
            if ret == JavaType::class(class_name) {
                return Ok(Stmt::decl_init(
                    JavaType::class(class_name),
                    instance_name,
                    expr,
                ));
            }
            return Ok(self.bind_return(idx, event, expr, Some(&ret)));
        }
        let ret = class_def
            .methods
            .iter()
            .find(|m| m.name == event.method_name && !m.is_static)
            .map(|m| m.ret.clone());
        let expr = Expr::call(Expr::var(instance_name), event.method_name.clone(), args);
        Ok(self.bind_return(idx, event, expr, ret.as_ref()))
    }

    fn bind_return(
        &mut self,
        idx: usize,
        event: &MethodEvent,
        expr: Expr,
        method_ret: Option<&JavaType>,
    ) -> Stmt {
        match &event.return_var {
            Some(rv) => {
                let ty = object_type(self.rules[idx].rule, rv);
                // Insert a downcast when the rule declares a more specific
                // type than the API returns (`(SecretKey) cipher.unwrap(…)`).
                let expr = match method_ret {
                    Some(rt)
                        if *rt != ty && self.table.is_assignable(&ty, rt) && ty.is_reference() =>
                    {
                        Expr::Cast {
                            ty: ty.clone(),
                            expr: Box::new(expr),
                        }
                    }
                    _ => expr,
                };
                let name = self.fresh_name(rv);
                self.values
                    .insert((idx, Carrier::Var(rv.clone())), name.clone());
                Stmt::decl_init(ty, name, expr)
            }
            None => Stmt::Expr(expr),
        }
    }

    /// The value the last rule of the chain produces: the return value of
    /// the last value-producing event, or the rule's instance (paper: "the
    /// last method of that class that needs to be called"). When the
    /// template declares a type for the return object, only candidates
    /// assignable to it qualify — so a `KeyPair`-typed return object
    /// receives the pair itself, not the last accessor's result.
    fn final_value(
        &self,
        idx: usize,
        path: &SelectedPath,
        expected: Option<&JavaType>,
    ) -> Result<String, GenError> {
        let rule = self.rules[idx].rule;
        let invalidating = invalidating_events(rule, &path.labels);
        let fits = |ty: &JavaType| match expected {
            Some(e) => self.table.is_assignable(ty, e),
            None => true,
        };
        for label in path.labels.iter().rev() {
            if invalidating.contains(label.as_str()) {
                continue;
            }
            if let Some(event) = rule.method_event(label) {
                if let Some(rv) = &event.return_var {
                    if !fits(&object_type(rule, rv)) {
                        continue;
                    }
                    if let Some(name) = self.values.get(&(idx, Carrier::Var(rv.clone()))) {
                        return Ok(name.clone());
                    }
                }
            }
        }
        let instance_ty = JavaType::class(rule.class_name.as_str());
        if fits(&instance_ty) {
            if let Some(name) = self.values.get(&(idx, Carrier::This)) {
                return Ok(name.clone());
            }
        }
        Err(GenError::UnresolvedInstance {
            rule: rule.class_name.to_string(),
        })
    }
}

/// Events whose execution would invalidate a predicate the rule ensures:
/// every event strictly after the `after` anchor of an ensured predicate
/// that the rule also NEGATES. The generator defers them to the end of the
/// method (paper: `clearPassword()` runs right before `return`).
pub fn invalidating_events<'r>(rule: &'r Rule, path: &[String]) -> HashSet<&'r str> {
    let mut out = HashSet::new();
    for ens in &rule.ensures {
        let negated = rule.negates.iter().any(|n| n.name == ens.predicate.name);
        if !negated {
            continue;
        }
        let Some(after) = &ens.after else { continue };
        let anchors: Vec<&str> = rule
            .resolve_label(after)
            .iter()
            .map(|m| m.label.as_str())
            .collect();
        let Some(pos) = path.iter().position(|l| anchors.contains(&l.as_str())) else {
            continue;
        };
        for label in &path[pos + 1..] {
            if let Some(ev) = rule.method_event(label) {
                out.insert(ev.label.as_str());
            }
        }
    }
    out
}

/// The declared type of rule variable `var`; `Object` when undeclared.
fn object_type(rule: &Rule, var: &str) -> JavaType {
    rule.object(var).map_or_else(
        || JavaType::class("java.lang.Object"),
        |o| java_type_of(&o.ty),
    )
}

fn literal_expr(lit: &Literal) -> Expr {
    match lit {
        Literal::Int(i) => Expr::int(*i),
        Literal::Str(s) => Expr::str(s.clone()),
        Literal::Bool(b) => Expr::bool(*b),
    }
}

fn lower_camel(simple: &str) -> String {
    let mut chars = simple.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// Generates the `templateUsage` showcase class (paper §3.3, end): a new
/// class with one method that instantiates the template class, calls every
/// chain-bearing method, matches arguments to previous return values by
/// type, and pushes up parameters that cannot be matched.
pub fn template_usage(
    template_class: &ClassDecl,
    chain_methods: &[String],
    table: &TypeTable,
) -> ClassDecl {
    let mut usage = MethodDecl::new("templateUsage", JavaType::Void);
    usage.body.push(Stmt::Comment(
        "generated by CogniCryptGEN: shows how to use the generated class".to_owned(),
    ));
    let tc_var = lower_camel(&template_class.name);
    usage.body.push(Stmt::decl_init(
        JavaType::class(template_class.name.clone()),
        tc_var.clone(),
        Expr::new_object(template_class.name.clone(), vec![]),
    ));

    // Values available for argument matching: (name, type), latest last.
    let mut available: Vec<(String, JavaType)> = Vec::new();
    let mut taken: HashSet<String> = HashSet::from([tc_var.clone()]);
    let mut result_counter = 0usize;

    for mname in chain_methods {
        let Some(m) = template_class.find_method(mname) else {
            continue;
        };
        let mut args = Vec::new();
        for p in &m.params {
            // Most recent assignable value wins; otherwise hoist.
            let found = available
                .iter()
                .rev()
                .find(|(_, ty)| table.is_assignable(ty, &p.ty))
                .map(|(n, _)| n.clone());
            match found {
                Some(n) => args.push(Expr::var(n)),
                None => {
                    let mut pname = p.name.clone();
                    let mut n = 1;
                    while taken.contains(&pname) {
                        n += 1;
                        pname = format!("{}{n}", p.name);
                    }
                    taken.insert(pname.clone());
                    usage.params.push(Param {
                        ty: p.ty.clone(),
                        name: pname.clone(),
                    });
                    args.push(Expr::var(pname));
                }
            }
        }
        let call = Expr::call(Expr::var(tc_var.clone()), m.name.clone(), args);
        if m.return_type == JavaType::Void {
            usage.body.push(Stmt::Expr(call));
        } else {
            result_counter += 1;
            let rname = format!("result{result_counter}");
            taken.insert(rname.clone());
            usage
                .body
                .push(Stmt::decl_init(m.return_type.clone(), rname.clone(), call));
            available.push((rname, m.return_type.clone()));
        }
    }

    ClassDecl::new("OutputClass").method(usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crysl::parse_rule;

    #[test]
    fn lower_camel_matches_paper_names() {
        assert_eq!(lower_camel("PBEKeySpec"), "pBEKeySpec");
        assert_eq!(lower_camel("SecureRandom"), "secureRandom");
        assert_eq!(lower_camel("Cipher"), "cipher");
    }

    #[test]
    fn invalidating_events_defer_clear_password() {
        let rule = parse_rule(
            "SPEC javax.crypto.spec.PBEKeySpec\nOBJECTS char[] password;\nEVENTS c1: PBEKeySpec(password); cP: clearPassword();\nORDER c1, cP\nENSURES speccedKey[this] after c1;\nNEGATES speccedKey[this];",
        )
        .unwrap();
        let inv = invalidating_events(&rule, &["c1".to_owned(), "cP".to_owned()]);
        assert!(inv.contains("cP"));
        assert!(!inv.contains("c1"));
    }

    #[test]
    fn no_negates_means_nothing_deferred() {
        let rule =
            parse_rule("SPEC a.X\nEVENTS a: f(); b: g();\nORDER a, b\nENSURES p[this] after a;")
                .unwrap();
        assert!(invalidating_events(&rule, &["a".to_owned(), "b".to_owned()]).is_empty());
    }
}
