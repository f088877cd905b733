//! Pretty-printer emitting Java source text from the AST.
//!
//! Output uses fully-qualified type names (no import management), four-space
//! indentation, and one statement per line — the same style the paper's
//! generated listings use.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a compilation unit as Java source text.
pub fn print_unit(unit: &CompilationUnit) -> String {
    let mut out = String::new();
    if !unit.package.is_empty() {
        let _ = writeln!(out, "package {};", unit.package);
        out.push('\n');
    }
    for (i, c) in unit.classes.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_class(&mut out, c);
    }
    out
}

/// Renders a single class.
pub fn print_class(out: &mut String, class: &ClassDecl) {
    let _ = writeln!(out, "public class {} {{", class.name);
    for f in &class.fields {
        let _ = write!(out, "    private {} {}", f.ty.simple_or_qualified(), f.name);
        if let Some(init) = &f.init {
            let _ = write!(out, " = {}", print_expr(init));
        }
        let _ = writeln!(out, ";");
    }
    for (i, m) in class.methods.iter().enumerate() {
        if i > 0 || !class.fields.is_empty() {
            out.push('\n');
        }
        print_method(out, m);
    }
    let _ = writeln!(out, "}}");
}

fn print_method(out: &mut String, m: &MethodDecl) {
    let stat = if m.is_static { "static " } else { "" };
    let params: Vec<String> = m
        .params
        .iter()
        .map(|p| format!("{} {}", p.ty.simple_or_qualified(), p.name))
        .collect();
    let _ = writeln!(
        out,
        "    public {}{} {}({}) {{",
        stat,
        m.return_type.simple_or_qualified(),
        m.name,
        params.join(", ")
    );
    for s in &m.body {
        print_stmt(out, s, 2);
    }
    let _ = writeln!(out, "    }}");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    match s {
        Stmt::Decl { ty, name, init } => {
            indent(out, level);
            let _ = write!(out, "{} {}", ty.simple_or_qualified(), name);
            if let Some(e) = init {
                let _ = write!(out, " = {}", print_expr(e));
            }
            let _ = writeln!(out, ";");
        }
        Stmt::Assign { target, value } => {
            indent(out, level);
            let _ = writeln!(out, "{} = {};", target, print_expr(value));
        }
        Stmt::Expr(e) => {
            indent(out, level);
            let _ = writeln!(out, "{};", print_expr(e));
        }
        Stmt::Return(None) => {
            indent(out, level);
            let _ = writeln!(out, "return;");
        }
        Stmt::Return(Some(e)) => {
            indent(out, level);
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            for s in then_body {
                print_stmt(out, s, level + 1);
            }
            if else_body.is_empty() {
                indent(out, level);
                let _ = writeln!(out, "}}");
            } else {
                indent(out, level);
                let _ = writeln!(out, "}} else {{");
                for s in else_body {
                    print_stmt(out, s, level + 1);
                }
                indent(out, level);
                let _ = writeln!(out, "}}");
            }
        }
        Stmt::Comment(text) => {
            indent(out, level);
            let _ = writeln!(out, "// {text}");
        }
    }
}

/// Renders a single expression.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(Lit::Int(i)) => i.to_string(),
        Expr::Lit(Lit::Str(s)) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        Expr::Lit(Lit::Bool(b)) => b.to_string(),
        Expr::Lit(Lit::Null) => "null".into(),
        Expr::Var(v) => v.clone(),
        Expr::New { class, args } => {
            format!("new {}({})", simple(class), print_args(args))
        }
        Expr::Call { recv, name, args } => {
            format!("{}.{}({})", print_expr(recv), name, print_args(args))
        }
        Expr::StaticCall { class, name, args } => {
            format!("{}.{}({})", simple(class), name, print_args(args))
        }
        Expr::StaticField { class, field } => format!("{}.{}", simple(class), field),
        Expr::NewArray { elem, len } => {
            format!("new {}[{}]", elem.simple_or_qualified(), print_expr(len))
        }
        Expr::ArrayLit { elem, elems } => {
            format!(
                "new {}[] {{{}}}",
                elem.simple_or_qualified(),
                print_args(elems)
            )
        }
        Expr::Bin { op, lhs, rhs } => {
            let o = match op {
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Add => "+",
                BinOp::Lt => "<",
            };
            format!("{} {} {}", print_expr(lhs), o, print_expr(rhs))
        }
        Expr::Cast { ty, expr } => {
            format!("({}) {}", ty.simple_or_qualified(), print_expr(expr))
        }
    }
}

fn print_args(args: &[Expr]) -> String {
    args.iter().map(print_expr).collect::<Vec<_>>().join(", ")
}

fn simple(fqn: &str) -> &str {
    fqn.rsplit('.').next().unwrap_or(fqn)
}

impl JavaType {
    /// The name used in printed source: simple names for classes (the
    /// printed code reads like the paper's listings), primitive names
    /// otherwise.
    pub fn simple_or_qualified(&self) -> String {
        self.simple_name()
    }
}

/// Counts the non-blank lines of a printed artefact — the measure used by
/// the paper's Table 2 (RQ4).
pub fn count_loc(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_paper_style_pbe_snippet() {
        let m = MethodDecl::new("generateKey", JavaType::class("javax.crypto.SecretKey"))
            .param(JavaType::char_array(), "pwd")
            .statement(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ))
            .statement(Stmt::decl_init(
                JavaType::class("java.security.SecureRandom"),
                "secureRandom",
                Expr::static_call(
                    "java.security.SecureRandom",
                    "getInstance",
                    vec![Expr::str("SHA1PRNG")],
                ),
            ))
            .statement(Stmt::Expr(Expr::call(
                Expr::var("secureRandom"),
                "nextBytes",
                vec![Expr::var("salt")],
            )))
            .statement(Stmt::Return(Some(Expr::null())));
        let unit = CompilationUnit::new("de.crypto.cognicrypt")
            .class(ClassDecl::new("TemplateClass").method(m));
        let src = print_unit(&unit);
        assert!(src.contains("package de.crypto.cognicrypt;"));
        assert!(src.contains("public class TemplateClass {"));
        assert!(src.contains("public SecretKey generateKey(char[] pwd) {"));
        assert!(src.contains("byte[] salt = new byte[32];"));
        assert!(src.contains("SecureRandom secureRandom = SecureRandom.getInstance(\"SHA1PRNG\");"));
        assert!(src.contains("secureRandom.nextBytes(salt);"));
        assert!(src.contains("return null;"));
    }

    #[test]
    fn prints_control_flow_and_operators() {
        let m = MethodDecl::new("check", JavaType::Boolean)
            .param(JavaType::Int, "x")
            .statement(Stmt::If {
                cond: Expr::Bin {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::var("x")),
                    rhs: Box::new(Expr::int(10)),
                },
                then_body: vec![Stmt::Return(Some(Expr::bool(true)))],
                else_body: vec![Stmt::Return(Some(Expr::bool(false)))],
            });
        let mut out = String::new();
        print_class(&mut out, &ClassDecl::new("C").method(m));
        assert!(out.contains("if (x < 10) {"));
        assert!(out.contains("} else {"));
        assert!(out.contains("return true;"));
    }

    #[test]
    fn prints_static_field_cast_and_array_literal() {
        assert_eq!(
            print_expr(&Expr::StaticField {
                class: "javax.crypto.Cipher".into(),
                field: "ENCRYPT_MODE".into()
            }),
            "Cipher.ENCRYPT_MODE"
        );
        assert_eq!(
            print_expr(&Expr::Cast {
                ty: JavaType::class("javax.crypto.SecretKey"),
                expr: Box::new(Expr::var("k"))
            }),
            "(SecretKey) k"
        );
        assert_eq!(
            print_expr(&Expr::ArrayLit {
                elem: JavaType::Byte,
                elems: vec![Expr::int(1), Expr::int(2)]
            }),
            "new byte[] {1, 2}"
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(print_expr(&Expr::str("a\"b\\c")), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn loc_counts_nonblank_lines() {
        assert_eq!(count_loc("a\n\n  \nb\nc\n"), 3);
    }

    #[test]
    fn comments_print_as_line_comments() {
        let mut out = String::new();
        print_stmt(
            &mut out,
            &Stmt::Comment("call with a real password".into()),
            0,
        );
        assert_eq!(out, "// call with a real password\n");
    }
}
