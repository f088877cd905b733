//! Compact binary (de)serialization for CrySL ASTs — the byte layer of
//! precompiled rule packs.
//!
//! The encoding is deliberately boring: fixed-width little-endian
//! integers, `u32`-length-prefixed UTF-8 strings, `u32`-count-prefixed
//! collections, one tag byte per enum variant. No self-describing
//! schema, no compression, no external dependency — the format version
//! in the pack header is the only compatibility mechanism.
//!
//! The [`Reader`] treats its input as hostile. Every read is bounds-
//! checked against the remaining input, every declared collection count
//! is capped against the bytes that could possibly back it, and every
//! enum tag must match a known variant. Any violation is a typed
//! [`CryslError::Pack`] — the decoder never panics and never allocates
//! more than the input length can justify.

use crate::ast::{
    Atom, CmpOp, Constraint, EnsuredPredicate, EventDecl, ForbiddenMethod, Literal, MethodEvent,
    ObjectDecl, OrderExpr, ParamPattern, PredArg, Predicate, QualifiedName, Rule, TypeRef,
};
use crate::error::CryslError;

/// Maximum nesting depth accepted for recursive AST forms ([`OrderExpr`],
/// [`Constraint`]). Real rules nest a handful of levels; the cap turns a
/// hostile deeply-nested pack into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Append-only byte sink for the pack encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a collection count (`u32`).
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// Appends an `Option<String>` as a presence byte plus the string.
    pub fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

/// Bounds-checked cursor over untrusted pack bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole input.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Current cursor position (for error messages).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CryslError> {
        if self.remaining() != 0 {
            return Err(CryslError::pack(format!(
                "{} trailing bytes after payload at offset {}",
                self.remaining(),
                self.pos
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CryslError> {
        if self.remaining() < n {
            return Err(CryslError::pack(format!(
                "truncated input: need {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CryslError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CryslError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CryslError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CryslError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CryslError> {
        self.u64().map(|v| v as i64)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string. The declared length
    /// is checked against the remaining input before any allocation.
    pub fn str(&mut self) -> Result<String, CryslError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| {
            CryslError::pack(format!("invalid UTF-8 in string at offset {}", self.pos))
        })
    }

    /// Reads a collection count, capped against the remaining bytes:
    /// every element of any collection costs at least one encoded byte,
    /// so a count exceeding `remaining()` is corruption, not a reason
    /// to pre-allocate gigabytes.
    pub fn count(&mut self) -> Result<usize, CryslError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CryslError::pack(format!(
                "impossible collection count {n} at offset {} ({} bytes remain)",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `Option<String>` written by [`Writer::opt_str`].
    pub fn opt_str(&mut self) -> Result<Option<String>, CryslError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            tag => Err(CryslError::pack(format!(
                "invalid option tag {tag} at offset {}",
                self.pos
            ))),
        }
    }

    fn bad_tag(&self, what: &str, tag: u8) -> CryslError {
        CryslError::pack(format!("invalid {what} tag {tag} at offset {}", self.pos))
    }
}

// ---------------------------------------------------------------------------
// AST encoding
// ---------------------------------------------------------------------------

fn write_type_ref(w: &mut Writer, t: &TypeRef) {
    w.str(&t.name);
    w.u8(t.array_dims);
}

fn read_type_ref(r: &mut Reader<'_>) -> Result<TypeRef, CryslError> {
    Ok(TypeRef {
        name: r.str()?,
        array_dims: r.u8()?,
    })
}

fn write_param(w: &mut Writer, p: &ParamPattern) {
    match p {
        ParamPattern::Var(v) => {
            w.u8(0);
            w.str(v);
        }
        ParamPattern::Wildcard => w.u8(1),
        ParamPattern::This => w.u8(2),
    }
}

fn read_param(r: &mut Reader<'_>) -> Result<ParamPattern, CryslError> {
    match r.u8()? {
        0 => Ok(ParamPattern::Var(r.str()?)),
        1 => Ok(ParamPattern::Wildcard),
        2 => Ok(ParamPattern::This),
        tag => Err(r.bad_tag("parameter pattern", tag)),
    }
}

fn write_event(w: &mut Writer, e: &EventDecl) {
    match e {
        EventDecl::Method(m) => {
            w.u8(0);
            w.str(&m.label);
            w.opt_str(m.return_var.as_deref());
            w.str(&m.method_name);
            w.count(m.params.len());
            for p in &m.params {
                write_param(w, p);
            }
        }
        EventDecl::Aggregate { label, members } => {
            w.u8(1);
            w.str(label);
            w.count(members.len());
            for m in members {
                w.str(m);
            }
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<EventDecl, CryslError> {
    match r.u8()? {
        0 => {
            let label = r.str()?;
            let return_var = r.opt_str()?;
            let method_name = r.str()?;
            let n = r.count()?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(read_param(r)?);
            }
            Ok(EventDecl::Method(MethodEvent {
                label,
                return_var,
                method_name,
                params,
            }))
        }
        1 => {
            let label = r.str()?;
            let n = r.count()?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(r.str()?);
            }
            Ok(EventDecl::Aggregate { label, members })
        }
        tag => Err(r.bad_tag("event", tag)),
    }
}

fn write_order(w: &mut Writer, o: &OrderExpr) {
    match o {
        OrderExpr::Empty => w.u8(0),
        OrderExpr::Label(l) => {
            w.u8(1);
            w.str(l);
        }
        OrderExpr::Seq(xs) => {
            w.u8(2);
            w.count(xs.len());
            for x in xs {
                write_order(w, x);
            }
        }
        OrderExpr::Alt(xs) => {
            w.u8(3);
            w.count(xs.len());
            for x in xs {
                write_order(w, x);
            }
        }
        OrderExpr::Opt(x) => {
            w.u8(4);
            write_order(w, x);
        }
        OrderExpr::Star(x) => {
            w.u8(5);
            write_order(w, x);
        }
        OrderExpr::Plus(x) => {
            w.u8(6);
            write_order(w, x);
        }
    }
}

fn read_order(r: &mut Reader<'_>, depth: usize) -> Result<OrderExpr, CryslError> {
    if depth > MAX_DEPTH {
        return Err(CryslError::pack(format!(
            "ORDER expression nests deeper than {MAX_DEPTH} levels"
        )));
    }
    match r.u8()? {
        0 => Ok(OrderExpr::Empty),
        1 => Ok(OrderExpr::Label(r.str()?)),
        tag @ (2 | 3) => {
            let n = r.count()?;
            let mut xs = Vec::with_capacity(n);
            for _ in 0..n {
                xs.push(read_order(r, depth + 1)?);
            }
            Ok(if tag == 2 {
                OrderExpr::Seq(xs)
            } else {
                OrderExpr::Alt(xs)
            })
        }
        4 => Ok(OrderExpr::Opt(Box::new(read_order(r, depth + 1)?))),
        5 => Ok(OrderExpr::Star(Box::new(read_order(r, depth + 1)?))),
        6 => Ok(OrderExpr::Plus(Box::new(read_order(r, depth + 1)?))),
        tag => Err(r.bad_tag("ORDER expression", tag)),
    }
}

fn write_literal(w: &mut Writer, l: &Literal) {
    match l {
        Literal::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Literal::Str(s) => {
            w.u8(1);
            w.str(s);
        }
        Literal::Bool(b) => {
            w.u8(2);
            w.u8(u8::from(*b));
        }
    }
}

fn read_literal(r: &mut Reader<'_>) -> Result<Literal, CryslError> {
    match r.u8()? {
        0 => Ok(Literal::Int(r.i64()?)),
        1 => Ok(Literal::Str(r.str()?)),
        2 => match r.u8()? {
            0 => Ok(Literal::Bool(false)),
            1 => Ok(Literal::Bool(true)),
            tag => Err(r.bad_tag("boolean", tag)),
        },
        tag => Err(r.bad_tag("literal", tag)),
    }
}

fn write_atom(w: &mut Writer, a: &Atom) {
    match a {
        Atom::Var(v) => {
            w.u8(0);
            w.str(v);
        }
        Atom::Lit(l) => {
            w.u8(1);
            write_literal(w, l);
        }
    }
}

fn read_atom(r: &mut Reader<'_>) -> Result<Atom, CryslError> {
    match r.u8()? {
        0 => Ok(Atom::Var(r.str()?)),
        1 => Ok(Atom::Lit(read_literal(r)?)),
        tag => Err(r.bad_tag("atom", tag)),
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn read_cmp_op(r: &mut Reader<'_>) -> Result<CmpOp, CryslError> {
    match r.u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Lt),
        3 => Ok(CmpOp::Le),
        4 => Ok(CmpOp::Gt),
        5 => Ok(CmpOp::Ge),
        tag => Err(r.bad_tag("comparison operator", tag)),
    }
}

fn write_constraint(w: &mut Writer, c: &Constraint) {
    match c {
        Constraint::In { var, choices } => {
            w.u8(0);
            w.str(var);
            w.count(choices.len());
            for l in choices {
                write_literal(w, l);
            }
        }
        Constraint::Cmp { left, op, right } => {
            w.u8(1);
            write_atom(w, left);
            w.u8(cmp_op_tag(*op));
            write_atom(w, right);
        }
        Constraint::InstanceOf { var, java_type } => {
            w.u8(2);
            w.str(var);
            w.str(java_type.as_str());
        }
        Constraint::NeverTypeOf { var, java_type } => {
            w.u8(3);
            w.str(var);
            w.str(java_type.as_str());
        }
        Constraint::Implies {
            antecedent,
            consequent,
        } => {
            w.u8(4);
            write_constraint(w, antecedent);
            write_constraint(w, consequent);
        }
        Constraint::And(a, b) => {
            w.u8(5);
            write_constraint(w, a);
            write_constraint(w, b);
        }
        Constraint::Or(a, b) => {
            w.u8(6);
            write_constraint(w, a);
            write_constraint(w, b);
        }
    }
}

fn read_constraint(r: &mut Reader<'_>, depth: usize) -> Result<Constraint, CryslError> {
    if depth > MAX_DEPTH {
        return Err(CryslError::pack(format!(
            "constraint nests deeper than {MAX_DEPTH} levels"
        )));
    }
    match r.u8()? {
        0 => {
            let var = r.str()?;
            let n = r.count()?;
            let mut choices = Vec::with_capacity(n);
            for _ in 0..n {
                choices.push(read_literal(r)?);
            }
            Ok(Constraint::In { var, choices })
        }
        1 => Ok(Constraint::Cmp {
            left: read_atom(r)?,
            op: read_cmp_op(r)?,
            right: read_atom(r)?,
        }),
        2 => Ok(Constraint::InstanceOf {
            var: r.str()?,
            java_type: QualifiedName::new(r.str()?),
        }),
        3 => Ok(Constraint::NeverTypeOf {
            var: r.str()?,
            java_type: QualifiedName::new(r.str()?),
        }),
        4 => Ok(Constraint::Implies {
            antecedent: Box::new(read_constraint(r, depth + 1)?),
            consequent: Box::new(read_constraint(r, depth + 1)?),
        }),
        5 => Ok(Constraint::And(
            Box::new(read_constraint(r, depth + 1)?),
            Box::new(read_constraint(r, depth + 1)?),
        )),
        6 => Ok(Constraint::Or(
            Box::new(read_constraint(r, depth + 1)?),
            Box::new(read_constraint(r, depth + 1)?),
        )),
        tag => Err(r.bad_tag("constraint", tag)),
    }
}

fn write_pred_arg(w: &mut Writer, a: &PredArg) {
    match a {
        PredArg::Var(v) => {
            w.u8(0);
            w.str(v);
        }
        PredArg::This => w.u8(1),
        PredArg::Wildcard => w.u8(2),
        PredArg::Lit(l) => {
            w.u8(3);
            write_literal(w, l);
        }
    }
}

fn read_pred_arg(r: &mut Reader<'_>) -> Result<PredArg, CryslError> {
    match r.u8()? {
        0 => Ok(PredArg::Var(r.str()?)),
        1 => Ok(PredArg::This),
        2 => Ok(PredArg::Wildcard),
        3 => Ok(PredArg::Lit(read_literal(r)?)),
        tag => Err(r.bad_tag("predicate argument", tag)),
    }
}

fn write_predicate(w: &mut Writer, p: &Predicate) {
    w.str(&p.name);
    w.count(p.args.len());
    for a in &p.args {
        write_pred_arg(w, a);
    }
}

fn read_predicate(r: &mut Reader<'_>) -> Result<Predicate, CryslError> {
    let name = r.str()?;
    let n = r.count()?;
    let mut args = Vec::with_capacity(n);
    for _ in 0..n {
        args.push(read_pred_arg(r)?);
    }
    Ok(Predicate { name, args })
}

/// Encodes one rule into `w`. The inverse of [`read_rule`].
pub fn write_rule(w: &mut Writer, rule: &Rule) {
    w.str(rule.class_name.as_str());
    w.count(rule.objects.len());
    for o in &rule.objects {
        write_type_ref(w, &o.ty);
        w.str(&o.name);
    }
    w.count(rule.events.len());
    for e in &rule.events {
        write_event(w, e);
    }
    write_order(w, &rule.order);
    w.count(rule.constraints.len());
    for c in &rule.constraints {
        write_constraint(w, c);
    }
    w.count(rule.forbidden.len());
    for fm in &rule.forbidden {
        w.str(&fm.method_name);
        w.count(fm.param_types.len());
        for t in &fm.param_types {
            write_type_ref(w, t);
        }
        w.opt_str(fm.replacement.as_deref());
    }
    w.count(rule.requires.len());
    for p in &rule.requires {
        write_predicate(w, p);
    }
    w.count(rule.ensures.len());
    for e in &rule.ensures {
        write_predicate(w, &e.predicate);
        w.opt_str(e.after.as_deref());
    }
    w.count(rule.negates.len());
    for p in &rule.negates {
        write_predicate(w, p);
    }
}

/// Decodes one rule from `r`. The structural inverse of [`write_rule`];
/// callers wanting full well-formedness must still run
/// [`crate::validate::validate`] on the result.
///
/// # Errors
///
/// Returns [`CryslError::Pack`] on truncation, an unknown tag, invalid
/// UTF-8, or an impossible count — never panics.
pub fn read_rule(r: &mut Reader<'_>) -> Result<Rule, CryslError> {
    let class_name = QualifiedName::new(r.str()?);
    let n = r.count()?;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let ty = read_type_ref(r)?;
        let name = r.str()?;
        objects.push(ObjectDecl { ty, name });
    }
    let n = r.count()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(read_event(r)?);
    }
    let order = read_order(r, 0)?;
    let n = r.count()?;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        constraints.push(read_constraint(r, 0)?);
    }
    let n = r.count()?;
    let mut forbidden = Vec::with_capacity(n);
    for _ in 0..n {
        let method_name = r.str()?;
        let tn = r.count()?;
        let mut param_types = Vec::with_capacity(tn);
        for _ in 0..tn {
            param_types.push(read_type_ref(r)?);
        }
        let replacement = r.opt_str()?;
        forbidden.push(ForbiddenMethod {
            method_name,
            param_types,
            replacement,
        });
    }
    let n = r.count()?;
    let mut requires = Vec::with_capacity(n);
    for _ in 0..n {
        requires.push(read_predicate(r)?);
    }
    let n = r.count()?;
    let mut ensures = Vec::with_capacity(n);
    for _ in 0..n {
        let predicate = read_predicate(r)?;
        let after = r.opt_str()?;
        ensures.push(EnsuredPredicate { predicate, after });
    }
    let n = r.count()?;
    let mut negates = Vec::with_capacity(n);
    for _ in 0..n {
        negates.push(read_predicate(r)?);
    }
    Ok(Rule {
        class_name,
        objects,
        events,
        order,
        constraints,
        forbidden,
        requires,
        ensures,
        negates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_rule;

    const SAMPLE: &str = "SPEC javax.crypto.spec.PBEKeySpec\n\
        OBJECTS\n  char[] password;\n  byte[] salt;\n  int iterationCount;\n  int keyLength;\n\
        EVENTS\n  c1: PBEKeySpec(password, salt, iterationCount, keyLength);\n\
        cP: clearPassword();\n  Gets := c1 | cP;\n\
        ORDER\n  c1, cP?\n\
        CONSTRAINTS\n  iterationCount >= 10000;\n  keyLength in {128, 256};\n\
        FORBIDDEN\n  PBEKeySpec(char[]) => c1;\n\
        REQUIRES\n  randomized[salt];\n\
        ENSURES\n  speccedKey[this] after c1;\n\
        NEGATES\n  speccedKey[this, _];";

    fn roundtrip(rule: &Rule) -> Rule {
        let mut w = Writer::new();
        write_rule(&mut w, rule);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = read_rule(&mut r).expect("decode");
        r.expect_end().expect("no trailing bytes");
        decoded
    }

    #[test]
    fn rule_roundtrips_byte_exactly() {
        let rule = parse_rule(SAMPLE).unwrap();
        assert_eq!(roundtrip(&rule), rule);
    }

    #[test]
    fn every_section_shape_roundtrips() {
        let rule = parse_rule(
            "SPEC a.B\nOBJECTS int k; char[][] c; int x;\nEVENTS a: x = f(k, _, this); b: g();\n\
             ORDER (a | b)+, a*, b?\n\
             CONSTRAINTS k in {1, \"s\", true}; k >= 1 && k <= 9 || k == 5;\n\
             k != 2 => k > 0; instanceof[k, j.T]; neverTypeOf[k, j.S];",
        )
        .unwrap();
        assert_eq!(roundtrip(&rule), rule);
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let rule = parse_rule(SAMPLE).unwrap();
        let mut w = Writer::new();
        write_rule(&mut w, &rule);
        let bytes = w.into_bytes();
        for end in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..end]);
            match read_rule(&mut r) {
                Ok(_) => assert!(
                    r.expect_end().is_err(),
                    "prefix of {end} bytes decoded AND consumed everything"
                ),
                Err(CryslError::Pack { .. }) => {}
                Err(other) => panic!("non-pack error on truncation at {end}: {other}"),
            }
        }
    }

    #[test]
    fn impossible_count_is_rejected_without_allocation() {
        let mut w = Writer::new();
        w.str("a.B");
        w.u32(u32::MAX); // objects count far beyond remaining bytes
        let bytes = w.into_bytes();
        let err = read_rule(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, CryslError::Pack { .. }), "{err}");
    }

    #[test]
    fn hostile_depth_is_capped_not_a_stack_overflow() {
        let mut w = Writer::new();
        w.str("a.B");
        w.count(0); // objects
        w.count(0); // events
        for _ in 0..10_000 {
            w.u8(4); // Opt(
        }
        w.u8(0); // Empty
        let bytes = w.into_bytes();
        let err = read_rule(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
    }

    #[test]
    fn invalid_utf8_and_bad_tags_are_typed_errors() {
        let mut w = Writer::new();
        w.u32(2);
        w.raw(&[0xff, 0xfe]);
        assert!(matches!(
            Reader::new(&w.into_bytes()).str(),
            Err(CryslError::Pack { .. })
        ));

        let mut w = Writer::new();
        w.str("a.B");
        w.count(1);
        w.str("int");
        w.u8(0);
        w.str("k");
        w.count(1);
        w.u8(9); // unknown event tag
        let err = read_rule(&mut Reader::new(&w.into_bytes())).unwrap_err();
        assert!(err.to_string().contains("event tag"), "{err}");
    }
}
