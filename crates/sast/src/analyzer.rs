//! The flow-sensitive misuse analyzer.

use std::collections::{HashMap, HashSet};

use crysl::ast::{Atom, CmpOp, Constraint, Literal, MethodEvent, ParamPattern, PredArg, Rule};
use crysl::RuleSet;
use javamodel::ast::*;
use javamodel::TypeTable;
use statemachine::{CompiledOrder, Dfa, Nfa};

use crate::absdomain::{AbsVal, PredicateStore, TrackedObject, ValId};
use crate::report::{Misuse, MisuseKind};

/// Analyzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerOptions {
    /// Treat method parameters as trusted carriers of any required
    /// predicate: their producers lie outside the (intraprocedural)
    /// analysis scope. Matches CogniCryptSAST's behaviour of reporting
    /// required-predicate errors only for values whose producers it can
    /// see. Constant values are never trusted.
    pub trust_parameters: bool,
}

impl Default for AnalyzerOptions {
    fn default() -> Self {
        AnalyzerOptions {
            trust_parameters: true,
        }
    }
}

/// Analyzes every method of every class in `unit`.
pub fn analyze_unit(
    unit: &CompilationUnit,
    rules: &RuleSet,
    table: &TypeTable,
    options: AnalyzerOptions,
) -> Vec<Misuse> {
    let mut out = Vec::new();
    for class in &unit.classes {
        for method in &class.methods {
            out.extend(analyze_method(unit, class, method, rules, table, options));
        }
    }
    out
}

/// Analyzes a single method.
pub fn analyze_method(
    unit: &CompilationUnit,
    class: &ClassDecl,
    method: &MethodDecl,
    rules: &RuleSet,
    table: &TypeTable,
    options: AnalyzerOptions,
) -> Vec<Misuse> {
    let mut a = Analyzer {
        unit,
        rules,
        table,
        options,
        location: format!("{}.{}", class.name, method.name),
        next_id: 0,
        vals: HashMap::new(),
        env: HashMap::new(),
        tracked: Vec::new(),
        preds: PredicateStore::default(),
        misuses: Vec::new(),
        reported: HashSet::new(),
    };
    for p in &method.params {
        let id = a.fresh(p.ty.clone());
        a.vals.get_mut(&id).expect("just created").from_parameter = true;
        a.env.insert(p.name.clone(), id);
    }
    a.exec_block(&method.body);
    a.finish();
    a.misuses
}

struct Analyzer<'a> {
    unit: &'a CompilationUnit,
    rules: &'a RuleSet,
    table: &'a TypeTable,
    options: AnalyzerOptions,
    location: String,
    next_id: ValId,
    vals: HashMap<ValId, AbsVal>,
    env: HashMap<String, ValId>,
    tracked: Vec<TrackedObject<'a>>,
    preds: PredicateStore,
    misuses: Vec<Misuse>,
    /// Deduplication of reports: (kind, class, detail key).
    reported: HashSet<(MisuseKind, String, String)>,
}

impl<'a> Analyzer<'a> {
    fn fresh(&mut self, ty: JavaType) -> ValId {
        let id = self.next_id;
        self.next_id += 1;
        self.vals.insert(id, AbsVal::new(id, ty));
        id
    }

    fn report(&mut self, kind: MisuseKind, class: &str, key: String, message: String) {
        if self.reported.insert((kind, class.to_owned(), key)) {
            self.misuses.push(Misuse {
                kind,
                class: class.to_owned(),
                location: self.location.clone(),
                message,
            });
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.exec_stmt(s);
        }
    }

    fn exec_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { ty, name, init } => {
                let id = match init {
                    Some(e) => self.eval(e),
                    None => self.fresh(ty.clone()),
                };
                self.env.insert(name.clone(), id);
            }
            Stmt::Assign { target, value } => {
                let id = self.eval(value);
                self.env.insert(target.clone(), id);
            }
            Stmt::Expr(e) | Stmt::Return(Some(e)) => {
                self.eval(e);
            }
            Stmt::Return(None) | Stmt::Comment(_) => {}
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                // May-analysis approximation: both branches execute in
                // sequence. Sound enough for the straight-line code the
                // generator emits; documented limitation for user code.
                self.eval(cond);
                self.exec_block(then_body);
                self.exec_block(else_body);
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> ValId {
        match e {
            Expr::Lit(Lit::Int(i)) => {
                let id = self.fresh(JavaType::Int);
                self.vals.get_mut(&id).expect("fresh").constant = Some(Literal::Int(*i));
                id
            }
            Expr::Lit(Lit::Str(s)) => {
                let id = self.fresh(JavaType::string());
                self.vals.get_mut(&id).expect("fresh").constant = Some(Literal::Str(s.clone()));
                id
            }
            Expr::Lit(Lit::Bool(b)) => {
                let id = self.fresh(JavaType::Boolean);
                self.vals.get_mut(&id).expect("fresh").constant = Some(Literal::Bool(*b));
                id
            }
            Expr::Lit(Lit::Null) => self.fresh(JavaType::class("java.lang.Object")),
            Expr::Var(v) => self
                .env
                .get(v)
                .copied()
                .unwrap_or_else(|| self.fresh(JavaType::class("java.lang.Object"))),
            Expr::ArrayLit { elem, elems } => {
                for el in elems {
                    self.eval(el);
                }
                let id = self.fresh(JavaType::Array(Box::new(elem.clone())));
                self.vals.get_mut(&id).expect("fresh").constant_array = true;
                id
            }
            Expr::NewArray { elem, len } => {
                self.eval(len);
                self.fresh(JavaType::Array(Box::new(elem.clone())))
            }
            Expr::StaticField { class, field } => {
                let ty = self
                    .table
                    .resolve_constant(class, field)
                    .map(|c| c.ty.clone())
                    .unwrap_or(JavaType::Int);
                let value = self
                    .table
                    .resolve_constant(class, field)
                    .and_then(|c| c.int_value);
                let id = self.fresh(ty);
                if let Some(v) = value {
                    self.vals.get_mut(&id).expect("fresh").constant = Some(Literal::Int(v));
                }
                id
            }
            Expr::Bin { lhs, rhs, op } => {
                self.eval(lhs);
                self.eval(rhs);
                let ty = match op {
                    BinOp::Add => JavaType::Int,
                    _ => JavaType::Boolean,
                };
                self.fresh(ty)
            }
            Expr::Cast { ty, expr } => {
                let id = self.eval(expr);
                // Keep identity; refine the type.
                self.vals.get_mut(&id).expect("evaluated").ty = ty.clone();
                id
            }
            Expr::New { class, args } => {
                let arg_ids: Vec<ValId> = args.iter().map(|a| self.eval(a)).collect();
                let id = self.fresh(JavaType::class(class.clone()));
                if let Some(rule) = self.rules.by_name(class) {
                    self.track(id, rule);
                    let simple = rule.class_name.simple_name().to_owned();
                    self.event_call(id, &simple, &arg_ids);
                }
                id
            }
            Expr::StaticCall { class, name, args } => {
                let arg_ids: Vec<ValId> = args.iter().map(|a| self.eval(a)).collect();
                let ret_ty = self.return_type_static(class, name, &arg_ids);
                // A static factory of a ruled class begins its typestate.
                if let Some(rule) = self.rules.by_name(class) {
                    if ret_ty.class_name() == Some(class) {
                        let id = self.fresh(ret_ty);
                        self.track(id, rule);
                        self.event_call(id, name, &arg_ids);
                        return id;
                    }
                }
                // Helper results derived from parameters inherit their
                // provenance: the true producer lies outside the analysis
                // scope (e.g. slicing the IV out of transmitted data).
                let derived = arg_ids.iter().any(|a| self.vals[a].from_parameter);
                let id = self.fresh(ret_ty);
                if derived {
                    self.vals.get_mut(&id).expect("fresh").from_parameter = true;
                }
                id
            }
            Expr::Call { recv, name, args } => {
                let recv_id = self.eval(recv);
                let arg_ids: Vec<ValId> = args.iter().map(|a| self.eval(a)).collect();
                let recv_ty = self.vals[&recv_id].ty.clone();

                // String.toCharArray origin tracking for neverTypeOf.
                if recv_ty == JavaType::string() {
                    let ret = self.return_type_instance(&recv_ty, name, &arg_ids);
                    let id = self.fresh(ret);
                    if name == "toCharArray" || name == "getBytes" {
                        self.vals.get_mut(&id).expect("fresh").origin =
                            Some("java.lang.String".to_owned());
                    }
                    return id;
                }

                let ret_ty = self.return_type_instance(&recv_ty, name, &arg_ids);
                let ret_id = if self.tracked_index(recv_id).is_some() {
                    self.event_call(recv_id, name, &arg_ids)
                } else {
                    None
                };
                match ret_id {
                    Some(id) => id,
                    None => {
                        let id = self.fresh(ret_ty.clone());
                        // A ruled class flowing out of a call starts its
                        // own typestate (e.g. generateSecret → SecretKey).
                        if let Some(cls) = ret_ty.class_name() {
                            if let Some(rule) = self.rules.by_name(cls) {
                                if self.tracked_index(recv_id).is_none()
                                    || rule.class_name.as_str()
                                        != self.vals[&recv_id].ty.class_name().unwrap_or("")
                                {
                                    self.track(id, rule);
                                }
                            }
                        }
                        id
                    }
                }
            }
        }
    }

    fn return_type_static(&self, class: &str, name: &str, args: &[ValId]) -> JavaType {
        let tys: Vec<JavaType> = args.iter().map(|a| self.vals[a].ty.clone()).collect();
        self.table
            .resolve_method(class, name, true, &tys)
            .map(|m| m.ret.clone())
            .unwrap_or(JavaType::class("java.lang.Object"))
    }

    fn return_type_instance(&self, recv: &JavaType, name: &str, args: &[ValId]) -> JavaType {
        let Some(class) = recv.class_name() else {
            return JavaType::class("java.lang.Object");
        };
        if let Some(local) = self.unit.find_class(class) {
            return local
                .find_method(name)
                .map(|m| m.return_type.clone())
                .unwrap_or(JavaType::class("java.lang.Object"));
        }
        let tys: Vec<JavaType> = args.iter().map(|a| self.vals[a].ty.clone()).collect();
        self.table
            .resolve_method(class, name, false, &tys)
            .map(|m| m.ret.clone())
            .unwrap_or(JavaType::class("java.lang.Object"))
    }

    /// Starts tracking `val`'s typestate under `rule`'s ORDER. An ORDER
    /// that builds no NFA, or whose subset construction passes the
    /// compiled-ORDER state bound (the rules may be untrusted), is left
    /// untracked.
    fn track(&mut self, val: ValId, rule: &'a Rule) {
        let Ok(dfa) = Nfa::from_rule(rule)
            .and_then(|nfa| Dfa::try_from_nfa(&nfa, CompiledOrder::DFA_STATE_LIMIT))
        else {
            return;
        };
        self.tracked.push(TrackedObject {
            val,
            rule,
            state: Some(dfa.start()),
            dfa,
            observed: Vec::new(),
            bindings: HashMap::new(),
        });
    }

    fn tracked_index(&self, val: ValId) -> Option<usize> {
        self.tracked.iter().position(|t| t.val == val)
    }

    /// Processes a call as a CrySL event on a tracked object. Returns the
    /// abstract value produced for the event's return variable, if the
    /// event binds one.
    fn event_call(&mut self, obj_val: ValId, name: &str, args: &[ValId]) -> Option<ValId> {
        let ti = self.tracked_index(obj_val)?;
        let rule = self.tracked[ti].rule;
        let class = rule.class_name.to_string();

        // FORBIDDEN check.
        for f in &rule.forbidden {
            if f.method_name == name && f.param_types.len() == args.len() {
                self.report(
                    MisuseKind::ForbiddenMethodError,
                    &class,
                    format!("forbidden:{name}/{}", args.len()),
                    format!("call to forbidden method `{name}`"),
                );
            }
        }

        // Find the candidate events for this call.
        let candidates: Vec<MethodEvent> = rule
            .events
            .iter()
            .filter_map(|e| match e {
                crysl::ast::EventDecl::Method(m)
                    if m.method_name == name && m.params.len() == args.len() =>
                {
                    Some(m.clone())
                }
                _ => None,
            })
            .collect();
        if candidates.is_empty() {
            return None; // not an event of the rule — ignored
        }

        // Typestate step: prefer a candidate the DFA accepts.
        let state = self.tracked[ti].state;
        let mut chosen: Option<(MethodEvent, Option<usize>)> = None;
        if let Some(st) = state {
            for c in &candidates {
                if let Some(next) = self.tracked[ti].dfa.step(st, &c.label) {
                    chosen = Some((c.clone(), Some(next)));
                    break;
                }
            }
        }
        let (event, next_state) = match chosen {
            Some(x) => x,
            None => {
                if state.is_some() {
                    self.report(
                        MisuseKind::TypestateError,
                        &class,
                        format!("typestate:{name}"),
                        format!("call to `{name}` not allowed by the usage pattern here"),
                    );
                    self.tracked[ti].state = None;
                }
                (candidates[0].clone(), None)
            }
        };

        // Bind event parameters and returns.
        let mut ret_id = None;
        for (p, a) in event.params.iter().zip(args) {
            if let ParamPattern::Var(v) = p {
                self.tracked[ti].bindings.insert(v.clone(), *a);
            }
        }
        if let Some(rv) = &event.return_var {
            let ty = rule
                .object(rv)
                .map(|o| crysl_type(&o.ty))
                .unwrap_or(JavaType::class("java.lang.Object"));
            let id = self.fresh(ty.clone());
            // Returned ruled objects begin their own typestate.
            if let Some(cls) = ty.class_name() {
                if let Some(r2) = self.rules.by_name(cls) {
                    self.track(id, r2);
                }
            }
            self.tracked[ti].bindings.insert(rv.clone(), id);
            ret_id = Some(id);
        }

        if let Some(next) = next_state {
            self.tracked[ti].state = Some(next);
        }
        self.tracked[ti].observed.push(event.label.clone());

        self.check_requires(ti, &event, args);
        self.check_constraints(ti);
        self.update_predicates(ti, &event);
        ret_id
    }

    /// REQUIRES checks for variables bound at this event (and `this` at
    /// the object's first event).
    fn check_requires(&mut self, ti: usize, event: &MethodEvent, args: &[ValId]) {
        let rule = self.tracked[ti].rule;
        let class = rule.class_name.to_string();
        let obj_val = self.tracked[ti].val;
        let first_event = self.tracked[ti].observed.len() == 1;
        let mut to_check: Vec<(String, ValId, String)> = Vec::new();
        for req in &rule.requires {
            match req.args.first() {
                Some(PredArg::Var(v)) => {
                    let bound_here = event
                        .params
                        .iter()
                        .zip(args)
                        .any(|(p, _)| matches!(p, ParamPattern::Var(pv) if pv == v));
                    if bound_here {
                        if let Some(&val) = self.tracked[ti].bindings.get(v) {
                            to_check.push((req.name.clone(), val, v.clone()));
                        }
                    }
                }
                Some(PredArg::This) if first_event => {
                    to_check.push((req.name.clone(), obj_val, "this".to_owned()));
                }
                _ => {}
            }
        }
        for (pred, val, var) in to_check {
            let ok = self.preds.holds(&pred, val)
                || (self.options.trust_parameters
                    && self.vals[&val].from_parameter
                    && !self.vals[&val].constant_array);
            if !ok {
                self.report(
                    MisuseKind::RequiredPredicateError,
                    &class,
                    format!("requires:{pred}:{var}"),
                    format!("`{var}` lacks required predicate `{pred}`"),
                );
            }
        }
    }

    /// Evaluates every constraint whose variables are all bound.
    fn check_constraints(&mut self, ti: usize) {
        let rule = self.tracked[ti].rule;
        let class = rule.class_name.to_string();
        let constraints = rule.constraints.clone();
        for (i, c) in constraints.iter().enumerate() {
            let all_bound = c
                .variables()
                .iter()
                .all(|v| self.tracked[ti].bindings.contains_key(*v));
            if !all_bound {
                continue;
            }
            if self.eval_constraint(ti, c) == Some(false) {
                self.report(
                    MisuseKind::ConstraintError,
                    &class,
                    format!("constraint:{i}"),
                    format!(
                        "constraint violated: {}",
                        crysl::printer::print_constraint(c)
                    ),
                );
            }
        }
    }

    /// Tri-state constraint evaluation: `None` = unknown.
    fn eval_constraint(&self, ti: usize, c: &Constraint) -> Option<bool> {
        let bindings = &self.tracked[ti].bindings;
        let lit_of = |var: &str| -> Option<Literal> {
            bindings
                .get(var)
                .and_then(|id| self.vals.get(id))
                .and_then(|v| v.constant.clone())
        };
        match c {
            Constraint::In { var, choices } => {
                let v = lit_of(var)?;
                Some(choices.contains(&v))
            }
            Constraint::Cmp { left, op, right } => {
                let lv = self.atom_value(ti, left)?;
                let rv = self.atom_value(ti, right)?;
                match (lv, rv) {
                    (Literal::Int(a), Literal::Int(b)) => Some(match op {
                        CmpOp::Eq => a == b,
                        CmpOp::Ne => a != b,
                        CmpOp::Lt => a < b,
                        CmpOp::Le => a <= b,
                        CmpOp::Gt => a > b,
                        CmpOp::Ge => a >= b,
                    }),
                    (Literal::Str(a), Literal::Str(b)) => match op {
                        CmpOp::Eq => Some(a == b),
                        CmpOp::Ne => Some(a != b),
                        _ => None,
                    },
                    _ => None,
                }
            }
            Constraint::InstanceOf { var, java_type } => {
                let id = bindings.get(var)?;
                let ty = &self.vals.get(id)?.ty;
                let cls = ty.class_name()?;
                Some(self.table.is_subclass_of(cls, java_type.as_str()))
            }
            Constraint::NeverTypeOf { var, java_type } => {
                let id = bindings.get(var)?;
                let v = self.vals.get(id)?;
                match &v.origin {
                    Some(origin) => Some(origin != java_type.as_str()),
                    None => Some(true), // no String origin observed
                }
            }
            Constraint::Implies {
                antecedent,
                consequent,
            } => match self.eval_constraint(ti, antecedent) {
                Some(true) => self.eval_constraint(ti, consequent),
                Some(false) => Some(true),
                None => None,
            },
            Constraint::And(a, b) => {
                match (self.eval_constraint(ti, a), self.eval_constraint(ti, b)) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }
            }
            Constraint::Or(a, b) => {
                match (self.eval_constraint(ti, a), self.eval_constraint(ti, b)) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }
            }
        }
    }

    fn atom_value(&self, ti: usize, a: &Atom) -> Option<Literal> {
        match a {
            Atom::Lit(l) => Some(l.clone()),
            Atom::Var(v) => self.tracked[ti]
                .bindings
                .get(v)
                .and_then(|id| self.vals.get(id))
                .and_then(|val| val.constant.clone()),
        }
    }

    /// Grants and revokes predicates after an event.
    fn update_predicates(&mut self, ti: usize, event: &MethodEvent) {
        let rule = self.tracked[ti].rule;
        let obj_val = self.tracked[ti].val;
        let accepting = self.tracked[ti]
            .state
            .is_some_and(|s| self.tracked[ti].dfa.is_accepting(s));

        let carrier_val = |t: &TrackedObject<'_>, arg: &PredArg| -> Option<ValId> {
            match arg {
                PredArg::This => Some(t.val),
                PredArg::Var(v) => t.bindings.get(v).copied(),
                _ => None,
            }
        };

        let mut grants: Vec<(String, ValId)> = Vec::new();
        let mut revokes: Vec<(String, ValId)> = Vec::new();
        {
            let t = &self.tracked[ti];
            for ens in &rule.ensures {
                let Some(carrier) = ens.predicate.args.first() else {
                    continue;
                };
                let Some(val) = carrier_val(t, carrier) else {
                    continue;
                };
                match &ens.after {
                    Some(anchor) => {
                        let anchors: Vec<&str> = rule
                            .resolve_label(anchor)
                            .iter()
                            .map(|m| m.label.as_str())
                            .collect();
                        if anchors.contains(&event.label.as_str()) {
                            grants.push((ens.predicate.name.clone(), val));
                        }
                        // NEGATES: a later event revokes the predicate.
                        let negated = rule.negates.iter().any(|n| n.name == ens.predicate.name);
                        if negated
                            && !anchors.contains(&event.label.as_str())
                            && t.observed.iter().any(|o| anchors.contains(&o.as_str()))
                        {
                            revokes.push((ens.predicate.name.clone(), val));
                        }
                    }
                    None => {
                        if accepting {
                            grants.push((ens.predicate.name.clone(), val));
                        }
                    }
                }
            }
        }
        let _ = obj_val;
        for (p, v) in grants {
            self.preds.grant(&p, v);
        }
        for (p, v) in revokes {
            self.preds.revoke(&p, v);
        }
    }

    /// End-of-method checks: incomplete operations.
    fn finish(&mut self) {
        let pending: Vec<(String, String)> = self
            .tracked
            .iter()
            .filter_map(|t| match t.state {
                Some(s) if !t.dfa.is_accepting(s) => Some((
                    t.rule.class_name.to_string(),
                    format!(
                        "object never completed its usage pattern (observed {:?})",
                        t.observed
                    ),
                )),
                _ => None,
            })
            .collect();
        for (class, msg) in pending {
            self.report(
                MisuseKind::IncompleteOperation,
                &class,
                "incomplete".to_owned(),
                msg,
            );
        }
    }
}

fn crysl_type(t: &crysl::ast::TypeRef) -> JavaType {
    let base = match t.name.as_str() {
        "int" => JavaType::Int,
        "long" => JavaType::Long,
        "boolean" => JavaType::Boolean,
        "char" => JavaType::Char,
        "byte" => JavaType::Byte,
        other => JavaType::Class(other.to_owned()),
    };
    (0..t.array_dims).fold(base, |acc, _| JavaType::Array(Box::new(acc)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use javamodel::jca::jca_type_table;

    fn analyze(m: MethodDecl) -> Vec<Misuse> {
        let unit = CompilationUnit::new("p").class(ClassDecl::new("C").method(m));
        analyze_unit(
            &unit,
            &rules::open(rules::PackSource::Embedded).unwrap().rules,
            &jca_type_table(),
            AnalyzerOptions::default(),
        )
    }

    /// The paper's Figure 1: three misuses.
    fn figure1_method() -> MethodDecl {
        MethodDecl::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::string(), "pwd")
            .statement(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::ArrayLit {
                    elem: JavaType::Byte,
                    elems: vec![15, -12, 94, 0, 12, 3, -65, 73, -1, -84, -35]
                        .into_iter()
                        .map(Expr::int)
                        .collect(),
                },
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.PBEKeySpec"),
                "spec",
                Expr::new_object(
                    "javax.crypto.spec.PBEKeySpec",
                    vec![
                        Expr::call(Expr::var("pwd"), "toCharArray", vec![]),
                        Expr::var("salt"),
                        Expr::int(100000),
                        Expr::int(256),
                    ],
                ),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKeyFactory"),
                "skf",
                Expr::static_call(
                    "javax.crypto.SecretKeyFactory",
                    "getInstance",
                    vec![Expr::str("PBKDF2WithHmacSHA256")],
                ),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKey"),
                "secretKey",
                Expr::call(Expr::var("skf"), "generateSecret", vec![Expr::var("spec")]),
            ))
            .statement(Stmt::decl_init(
                JavaType::byte_array(),
                "keyMaterial",
                Expr::call(Expr::var("secretKey"), "getEncoded", vec![]),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.SecretKeySpec"),
                "cipherKey",
                Expr::new_object(
                    "javax.crypto.spec.SecretKeySpec",
                    vec![Expr::var("keyMaterial"), Expr::str("AES")],
                ),
            ))
            .statement(Stmt::Return(Some(Expr::var("cipherKey"))))
    }

    #[test]
    fn figure_1_has_exactly_the_three_paper_misuses() {
        let misuses = analyze(figure1_method());
        let kinds: Vec<MisuseKind> = misuses.iter().map(|m| m.kind).collect();
        assert!(
            kinds.contains(&MisuseKind::RequiredPredicateError),
            "constant salt must be flagged: {misuses:?}"
        );
        assert!(
            kinds.contains(&MisuseKind::ConstraintError),
            "String-sourced password must be flagged: {misuses:?}"
        );
        assert!(
            kinds.contains(&MisuseKind::IncompleteOperation),
            "missing clearPassword must be flagged: {misuses:?}"
        );
        assert_eq!(misuses.len(), 3, "exactly three misuses: {misuses:?}");
    }

    #[test]
    fn low_iteration_count_is_a_constraint_error() {
        let m = MethodDecl::new("f", JavaType::Void)
            .param(JavaType::char_array(), "pwd")
            .param(JavaType::byte_array(), "salt")
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.PBEKeySpec"),
                "spec",
                Expr::new_object(
                    "javax.crypto.spec.PBEKeySpec",
                    vec![
                        Expr::var("pwd"),
                        Expr::var("salt"),
                        Expr::int(500), // far below 10,000
                        Expr::int(128),
                    ],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("spec"),
                "clearPassword",
                vec![],
            )));
        let misuses = analyze(m);
        assert_eq!(misuses.len(), 1, "{misuses:?}");
        assert_eq!(misuses[0].kind, MisuseKind::ConstraintError);
    }

    #[test]
    fn wrong_call_order_is_a_typestate_error() {
        // clearPassword before any constructor event cannot happen (it is
        // the ctor that creates the object), so test with Cipher: doFinal
        // before init.
        let m = MethodDecl::new("f", JavaType::Void)
            .param(JavaType::byte_array(), "data")
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.Cipher"),
                "c",
                Expr::static_call(
                    "javax.crypto.Cipher",
                    "getInstance",
                    vec![Expr::str("AES/CBC/PKCS5Padding")],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("c"),
                "doFinal",
                vec![Expr::var("data")],
            )));
        let misuses = analyze(m);
        assert!(
            misuses.iter().any(|m| m.kind == MisuseKind::TypestateError),
            "{misuses:?}"
        );
    }

    #[test]
    fn secure_pbe_code_is_clean() {
        // The shape CogniCryptGEN generates: randomized salt, char[]
        // password parameter, clearPassword at the end.
        let m = MethodDecl::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::char_array(), "pwd")
            .statement(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("java.security.SecureRandom"),
                "sr",
                Expr::static_call(
                    "java.security.SecureRandom",
                    "getInstance",
                    vec![Expr::str("SHA1PRNG")],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("sr"),
                "nextBytes",
                vec![Expr::var("salt")],
            )))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.PBEKeySpec"),
                "spec",
                Expr::new_object(
                    "javax.crypto.spec.PBEKeySpec",
                    vec![
                        Expr::var("pwd"),
                        Expr::var("salt"),
                        Expr::int(10000),
                        Expr::int(128),
                    ],
                ),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKeyFactory"),
                "skf",
                Expr::static_call(
                    "javax.crypto.SecretKeyFactory",
                    "getInstance",
                    vec![Expr::str("PBKDF2WithHmacSHA256")],
                ),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.SecretKey"),
                "key",
                Expr::call(Expr::var("skf"), "generateSecret", vec![Expr::var("spec")]),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("spec"),
                "clearPassword",
                vec![],
            )))
            .statement(Stmt::Return(Some(Expr::var("key"))));
        let misuses = analyze(m);
        assert!(misuses.is_empty(), "{misuses:?}");
    }

    #[test]
    fn disallowed_algorithm_is_a_constraint_error() {
        let m = MethodDecl::new("f", JavaType::byte_array())
            .param(JavaType::byte_array(), "data")
            .statement(Stmt::decl_init(
                JavaType::class("java.security.MessageDigest"),
                "md",
                Expr::static_call(
                    "java.security.MessageDigest",
                    "getInstance",
                    vec![Expr::str("SHA-1")],
                ),
            ))
            .statement(Stmt::Return(Some(Expr::call(
                Expr::var("md"),
                "digest",
                vec![Expr::var("data")],
            ))));
        let misuses = analyze(m);
        assert!(
            misuses
                .iter()
                .any(|mi| mi.kind == MisuseKind::ConstraintError),
            "{misuses:?}"
        );
    }

    #[test]
    fn an_order_past_the_state_bound_is_left_untracked() {
        // After `(c | cP)*, c`, the 24 events that follow make a subset
        // state of every suffix of up to 25 events: 2^25 states
        // unbounded, so only the compiled-ORDER bound lets this return.
        let order = vec!["(c | cP)"; 24].join(", ");
        let source = format!(
            "SPEC javax.crypto.spec.PBEKeySpec
OBJECTS
    char[] password;
    byte[] salt;
    int iterationCount;
    int keylength;
EVENTS
    c: PBEKeySpec(password, salt, iterationCount, keylength);
    cP: clearPassword();
ORDER
    (c | cP)*, c, {order}"
        );
        let mut rules = RuleSet::new();
        rules
            .add_source(&source)
            .expect("the rule parses and validates");
        let m = MethodDecl::new("f", JavaType::Void)
            .param(JavaType::char_array(), "pwd")
            .param(JavaType::byte_array(), "salt")
            .statement(Stmt::decl_init(
                JavaType::class("javax.crypto.spec.PBEKeySpec"),
                "spec",
                Expr::new_object(
                    "javax.crypto.spec.PBEKeySpec",
                    vec![
                        Expr::var("pwd"),
                        Expr::var("salt"),
                        Expr::int(10000),
                        Expr::int(128),
                    ],
                ),
            ));
        let unit = CompilationUnit::new("p").class(ClassDecl::new("C").method(m));
        // Tracked, the lone constructor call would be an incomplete
        // operation; untracked, the object yields no misuse at all.
        let misuses = analyze_unit(&unit, &rules, &jca_type_table(), AnalyzerOptions::default());
        assert!(misuses.is_empty(), "{misuses:?}");
    }
}
