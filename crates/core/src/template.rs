//! Code templates and the fluent configuration API.
//!
//! A template is a regular (modelled-)Java class containing glue code and,
//! per method, at most one call chain on the `CrySLCodeGenerator` fluent
//! API (paper §3.2). The chain names the CrySL rules making up the use
//! case, binds template variables to rule variables with `addParameter`,
//! and nominates a return object with `addReturnObject`.
//!
//! Templates are written as Java text, as in the paper (Fig. 4; the
//! shipped ones are `crates/usecases/templates/ucNN.java`).
//! [`split_header`] reads a template file's `// <id> | <name> | <sources>`
//! header line, [`parse_template`] parses the Java below it, and
//! [`lower`] turns the parsed unit into a [`Template`]. Malformed text is
//! a typed [`TemplateError`]. [`CrySlCodeGenerator`] and the
//! [`TemplateMethod`] builders assemble the same model in Rust.

use std::fmt;

use javamodel::ast::{CompilationUnit, Expr, JavaType, Lit, MethodDecl, Param, Stmt};
use javamodel::parser::{parse_java, JavaParseError};
use javamodel::typetable::TypeTable;

/// A binding created by `addParameter(templateVar, "ruleVar")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The template-side variable (method parameter or glue-code local).
    pub template_var: String,
    /// The CrySL OBJECTS variable it is bound to.
    pub rule_var: String,
}

/// One `considerCrySLRule` entry of a chain, with its bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// The class name passed to `considerCrySLRule` (fully qualified or
    /// unambiguous simple name).
    pub rule: String,
    /// Parameter bindings attached to this entry.
    pub bindings: Vec<Binding>,
}

/// A complete fluent-API call chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GeneratorChain {
    /// Rules in `considerCrySLRule` order — also the generation order.
    pub entries: Vec<ChainEntry>,
    /// Template variable receiving the final generated value, if any.
    pub return_object: Option<String>,
}

/// Builder mirroring the paper's fluent API
/// (`CrySLCodeGenerator.getInstance().considerCrySLRule(..)...`).
///
/// # Example
///
/// ```
/// use cognicrypt_core::template::CrySlCodeGenerator;
///
/// let chain = CrySlCodeGenerator::get_instance()
///     .consider_crysl_rule("java.security.SecureRandom")
///     .add_parameter("salt", "out")
///     .consider_crysl_rule("javax.crypto.spec.PBEKeySpec")
///     .add_parameter("pwd", "password")
///     .add_return_object("encryptionKey")
///     .build();
/// assert_eq!(chain.entries.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrySlCodeGenerator {
    chain: GeneratorChain,
}

impl CrySlCodeGenerator {
    /// Starts a new chain (`CrySLCodeGenerator.getInstance()`).
    pub fn get_instance() -> Self {
        CrySlCodeGenerator::default()
    }

    /// Includes a CrySL rule in the generation.
    #[must_use]
    pub fn consider_crysl_rule(mut self, class_name: impl Into<String>) -> Self {
        self.chain.entries.push(ChainEntry {
            rule: class_name.into(),
            bindings: Vec::new(),
        });
        self
    }

    /// Binds a template variable to a variable of the most recently
    /// considered rule.
    ///
    /// # Panics
    ///
    /// Panics if called before any `consider_crysl_rule` — the fluent API
    /// has no rule to attach the binding to (same contract as the paper's
    /// Java API, where the chain grammar makes this unrepresentable).
    #[must_use]
    pub fn add_parameter(
        mut self,
        template_var: impl Into<String>,
        rule_var: impl Into<String>,
    ) -> Self {
        let entry = self
            .chain
            .entries
            .last_mut()
            .expect("addParameter must follow considerCrySLRule");
        entry.bindings.push(Binding {
            template_var: template_var.into(),
            rule_var: rule_var.into(),
        });
        self
    }

    /// Nominates the template variable that receives the final value.
    #[must_use]
    pub fn add_return_object(mut self, template_var: impl Into<String>) -> Self {
        self.chain.return_object = Some(template_var.into());
        self
    }

    /// Finishes the chain (`generate()` in the Java API; the actual
    /// generation happens when the template is processed).
    pub fn build(self) -> GeneratorChain {
        self.chain
    }
}

/// A template method: wrapper signature, glue code before and after the
/// chain, and the chain itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateMethod {
    /// Method name.
    pub name: String,
    /// Return type of the wrapper.
    pub return_type: JavaType,
    /// Wrapper parameters.
    pub params: Vec<Param>,
    /// Glue statements emitted before the generated block.
    pub pre_statements: Vec<Stmt>,
    /// The fluent-API chain, if this method generates code. Methods
    /// without a chain are plain helpers.
    pub chain: Option<GeneratorChain>,
    /// Glue statements emitted after the generated block.
    pub post_statements: Vec<Stmt>,
}

impl TemplateMethod {
    /// Creates an empty template method.
    pub fn new(name: impl Into<String>, return_type: JavaType) -> Self {
        TemplateMethod {
            name: name.into(),
            return_type,
            params: Vec::new(),
            pre_statements: Vec::new(),
            chain: None,
            post_statements: Vec::new(),
        }
    }

    /// Adds a wrapper parameter (builder style).
    #[must_use]
    pub fn param(mut self, ty: JavaType, name: impl Into<String>) -> Self {
        self.params.push(Param {
            ty,
            name: name.into(),
        });
        self
    }

    /// Appends a glue statement before the generated block.
    #[must_use]
    pub fn pre(mut self, stmt: Stmt) -> Self {
        self.pre_statements.push(stmt);
        self
    }

    /// Sets the fluent-API chain.
    #[must_use]
    pub fn chain(mut self, chain: GeneratorChain) -> Self {
        self.chain = Some(chain);
        self
    }

    /// Appends a glue statement after the generated block.
    #[must_use]
    pub fn post(mut self, stmt: Stmt) -> Self {
        self.post_statements.push(stmt);
        self
    }

    /// The declared type of a template variable visible to the chain:
    /// a method parameter or a glue-code local declared in
    /// `pre_statements`.
    pub fn var_type(&self, name: &str) -> Option<&JavaType> {
        if let Some(p) = self.params.iter().find(|p| p.name == name) {
            return Some(&p.ty);
        }
        self.pre_statements.iter().find_map(|s| match s {
            Stmt::Decl { ty, name: n, .. } if n == name => Some(ty),
            _ => None,
        })
    }
}

/// A code template: the class CogniCryptGEN fills in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    /// Package of the generated class.
    pub package: String,
    /// Name of the generated class.
    pub class_name: String,
    /// Template methods.
    pub methods: Vec<TemplateMethod>,
}

impl Template {
    /// Creates an empty template.
    pub fn new(package: impl Into<String>, class_name: impl Into<String>) -> Self {
        Template {
            package: package.into(),
            class_name: class_name.into(),
            methods: Vec::new(),
        }
    }

    /// Adds a method (builder style).
    #[must_use]
    pub fn method(mut self, m: TemplateMethod) -> Self {
        self.methods.push(m);
        self
    }
}

/// Line 1 of a template file: `// <id> | <name> | <sources>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<'a> {
    /// Use-case id (1–11 are the rows of the paper's Table 1).
    pub id: u8,
    /// Human-readable name.
    pub name: &'a str,
    /// Source citations, or `ext` for the scale-out families.
    pub sources: &'a str,
}

/// Why template text does not lower to a [`Template`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// Line 1 is missing or is not a `// <id> | <name> | <sources>`
    /// header.
    Header(String),
    /// The Java below the header does not parse.
    Java(JavaParseError),
    /// The unit parses but is not a template. `method` is empty for a
    /// fault of the unit as a whole.
    Shape {
        /// The method at fault.
        method: String,
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Header(m) => write!(f, "template header: {m}"),
            TemplateError::Java(e) => write!(f, "template: {e}"),
            TemplateError::Shape { method, message } if method.is_empty() => {
                write!(f, "template: {message}")
            }
            TemplateError::Shape { method, message } => {
                write!(f, "template method `{method}`: {message}")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// Splits a template file into its header and the Java text below it.
///
/// # Errors
///
/// [`TemplateError::Header`] when line 1 is not
/// `// <id> | <name> | <sources>` with a non-zero id and non-empty
/// fields.
pub fn split_header(text: &str) -> Result<(Header<'_>, &str), TemplateError> {
    let (line, java) = text.split_once('\n').unwrap_or((text, ""));
    let bad = || {
        TemplateError::Header(format!(
            "expected `// <id> | <name> | <sources>`, found `{line}`"
        ))
    };
    let mut fields = line.strip_prefix("// ").ok_or_else(bad)?.split(" | ");
    let (Some(id), Some(name), Some(sources), None) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(bad());
    };
    let id = id.parse::<u8>().ok().filter(|&id| id > 0).ok_or_else(bad)?;
    if name.is_empty() || sources.is_empty() {
        return Err(bad());
    }
    Ok((Header { id, name, sources }, java))
}

/// Parses Java template text (no header line) and lowers it with
/// [`lower`]. Class names resolve against `table`.
///
/// # Errors
///
/// [`TemplateError::Java`] when the text does not parse, otherwise
/// whatever [`lower`] reports.
pub fn parse_template(java: &str, table: &TypeTable) -> Result<Template, TemplateError> {
    lower(&parse_java(java, table).map_err(TemplateError::Java)?)
}

/// Lowers a parsed unit to a [`Template`]. The unit holds one class
/// without fields. In each of its instance methods, the statement
/// `CrySLCodeGenerator.getInstance()…generate();` becomes the chain, the
/// statements before it the `pre` glue and those after it the `post`
/// glue. A method without such a statement is a helper.
///
/// # Errors
///
/// [`TemplateError::Shape`] for anything else: a unit without exactly
/// one class, a field, a static method, two chains in one method, or a
/// chain that is not `getInstance()`, then `considerCrySLRule("rule")`
/// entries each followed by `addParameter(var, "ruleVar")` bindings, an
/// optional `addReturnObject(var)`, and `generate()`.
pub fn lower(unit: &CompilationUnit) -> Result<Template, TemplateError> {
    let shape = |message: String| TemplateError::Shape {
        method: String::new(),
        message,
    };
    let [class] = unit.classes.as_slice() else {
        return Err(shape(format!(
            "expected one class, found {}",
            unit.classes.len()
        )));
    };
    if let Some(field) = class.fields.first() {
        return Err(shape(format!("field `{}` in a template class", field.name)));
    }
    let mut template = Template::new(unit.package.clone(), class.name.clone());
    for m in &class.methods {
        template
            .methods
            .push(lower_method(m).map_err(|message| TemplateError::Shape {
                method: m.name.clone(),
                message,
            })?);
    }
    Ok(template)
}

fn lower_method(m: &MethodDecl) -> Result<TemplateMethod, String> {
    if m.is_static {
        return Err("template methods are instance methods".to_owned());
    }
    let mut out = TemplateMethod::new(m.name.clone(), m.return_type.clone());
    out.params.clone_from(&m.params);
    for stmt in &m.body {
        match stmt {
            Stmt::Expr(e) if chain_root(e) => {
                if out.chain.is_some() {
                    return Err("two generator chains in one method".to_owned());
                }
                out.chain = Some(lower_chain(e)?);
            }
            _ if out.chain.is_some() => out.post_statements.push(stmt.clone()),
            _ => out.pre_statements.push(stmt.clone()),
        }
    }
    Ok(out)
}

/// Whether the call spine of `e` starts at `CrySLCodeGenerator`.
fn chain_root(mut e: &Expr) -> bool {
    while let Expr::Call { recv, .. } = e {
        e = recv;
    }
    matches!(e, Expr::Var(v) if v == "CrySLCodeGenerator")
}

fn lower_chain(e: &Expr) -> Result<GeneratorChain, String> {
    let mut calls = Vec::new();
    let mut e = e;
    while let Expr::Call { recv, name, args } = e {
        calls.push((name.as_str(), args.as_slice()));
        e = recv;
    }
    calls.reverse();
    let Some((("getInstance", []), rest)) = calls.split_first() else {
        return Err("a chain starts with `CrySLCodeGenerator.getInstance()`".to_owned());
    };
    let Some((("generate", []), rest)) = rest.split_last() else {
        return Err("a chain ends in `generate()`".to_owned());
    };
    let mut chain = GeneratorChain::default();
    for &(name, args) in rest {
        match (name, args) {
            ("considerCrySLRule", [Expr::Lit(Lit::Str(rule))]) => chain.entries.push(ChainEntry {
                rule: rule.clone(),
                bindings: Vec::new(),
            }),
            ("addParameter", [Expr::Var(var), Expr::Lit(Lit::Str(rule_var))]) => {
                let entry = chain
                    .entries
                    .last_mut()
                    .ok_or("`addParameter` before any `considerCrySLRule`")?;
                entry.bindings.push(Binding {
                    template_var: var.clone(),
                    rule_var: rule_var.clone(),
                });
            }
            ("addReturnObject", [Expr::Var(var)]) => {
                if chain.return_object.replace(var.clone()).is_some() {
                    return Err("`addReturnObject` given twice".to_owned());
                }
            }
            ("considerCrySLRule" | "addParameter" | "addReturnObject", _) => {
                return Err(format!("malformed `{name}` call: {args:?}"));
            }
            _ => return Err(format!("unknown fluent method `{name}`")),
        }
    }
    if chain.entries.is_empty() {
        return Err("a chain considers at least one rule".to_owned());
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use javamodel::ast::Expr;

    #[test]
    fn fluent_chain_records_order_and_bindings() {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("A")
            .add_parameter("x", "in")
            .consider_crysl_rule("B")
            .add_return_object("out")
            .build();
        assert_eq!(chain.entries[0].rule, "A");
        assert_eq!(chain.entries[0].bindings[0].template_var, "x");
        assert!(chain.entries[1].bindings.is_empty());
        assert_eq!(chain.return_object.as_deref(), Some("out"));
    }

    #[test]
    #[should_panic(expected = "considerCrySLRule")]
    fn add_parameter_requires_a_rule() {
        let _ = CrySlCodeGenerator::get_instance().add_parameter("x", "y");
    }

    const FIGURE_4: &str = "package de.crypto;

public class TemplateClass {
    public SecretKey generateKey(char[] pwd) {
        byte[] salt = new byte[32];
        CrySLCodeGenerator.getInstance().
            considerCrySLRule(\"java.security.SecureRandom\").
            addParameter(salt, \"out\").
            considerCrySLRule(\"javax.crypto.spec.SecretKeySpec\").
            addReturnObject(encryptionKey).generate();
        return encryptionKey;
    }
}
";

    fn lowered(java: &str) -> Result<Template, TemplateError> {
        parse_template(java, &javamodel::jca::jca_type_table())
    }

    fn printed(java: &str) -> String {
        let unit = parse_java(java, &javamodel::jca::jca_type_table()).unwrap();
        javamodel::printer::print_unit(&unit)
    }

    /// The Java text of a template is the template file itself: Figure 4
    /// lowers to its chain and glue, and printing the parsed unit gives
    /// the Figure 4 shape back.
    #[test]
    fn render_java_prints_the_paper_figure_4_shape() {
        let chain = CrySlCodeGenerator::get_instance()
            .consider_crysl_rule("java.security.SecureRandom")
            .add_parameter("salt", "out")
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
            .chain(chain)
            .post(Stmt::Return(Some(Expr::var("encryptionKey"))));
        let expected = Template::new("de.crypto", "TemplateClass").method(method);
        assert_eq!(lowered(FIGURE_4), Ok(expected));

        let java = printed(FIGURE_4);
        assert!(java.contains("public class TemplateClass {"), "{java}");
        assert!(
            java.contains("public SecretKey generateKey(char[] pwd) {"),
            "{java}"
        );
        assert!(java.contains("CrySLCodeGenerator.getInstance()."), "{java}");
        assert!(
            java.contains("considerCrySLRule(\"java.security.SecureRandom\")"),
            "{java}"
        );
        assert!(java.contains("addParameter(salt, \"out\")"), "{java}");
        assert!(
            java.contains("addReturnObject(encryptionKey).generate();"),
            "{java}"
        );
        assert!(java.contains("return encryptionKey;"), "{java}");
    }

    /// A method without a generator chain lowers to a helper: its body is
    /// glue and the method has no chain.
    #[test]
    fn render_java_handles_helper_methods_without_chains() {
        let java = "package p;\n\npublic class C {\n    public int helper() {\n        return 42;\n    }\n}\n";
        let helper =
            TemplateMethod::new("helper", JavaType::Int).pre(Stmt::Return(Some(Expr::int(42))));
        assert_eq!(lowered(java), Ok(Template::new("p", "C").method(helper)));

        let printed = printed(java);
        assert!(printed.contains("public int helper() {"), "{printed}");
        assert!(printed.contains("return 42;"), "{printed}");
        assert!(!printed.contains("CrySLCodeGenerator"), "{printed}");
    }

    /// A one-method template whose body ends in `chain`.
    fn with_chain(chain: &str) -> String {
        format!(
            "public class C {{\n    public void go(byte[] data) {{\n        {chain}\n    }}\n}}\n"
        )
    }

    #[test]
    fn malformed_chains_are_typed_errors() {
        let cases = [
            (
                "CrySLCodeGenerator.getInstance().considerCrySLRule(\"a.X\");",
                "ends in `generate()`",
            ),
            (
                "CrySLCodeGenerator.getInstance().addParameter(data, \"in\").considerCrySLRule(\"a.X\").generate();",
                "`addParameter` before any `considerCrySLRule`",
            ),
            (
                "CrySLCodeGenerator.getInstance().considerCrySLRule(\"a.X\").generate();\n        CrySLCodeGenerator.getInstance().considerCrySLRule(\"a.Y\").generate();",
                "two generator chains",
            ),
            (
                "CrySLCodeGenerator.getInstance().considerCrySLRule(data).generate();",
                "malformed `considerCrySLRule` call",
            ),
            (
                "CrySLCodeGenerator.getInstance().considerCrySLRule(\"a.X\").frobnicate().generate();",
                "unknown fluent method `frobnicate`",
            ),
            (
                "CrySLCodeGenerator.considerCrySLRule(\"a.X\").generate();",
                "starts with `CrySLCodeGenerator.getInstance()`",
            ),
            (
                "CrySLCodeGenerator.getInstance().generate();",
                "at least one rule",
            ),
            (
                "CrySLCodeGenerator.getInstance().considerCrySLRule(\"a.X\").addReturnObject(data).addReturnObject(data).generate();",
                "`addReturnObject` given twice",
            ),
        ];
        for (chain, wanted) in cases {
            match lowered(&with_chain(chain)) {
                Err(TemplateError::Shape { method, message }) => {
                    assert_eq!(method, "go");
                    assert!(message.contains(wanted), "{chain}: {message}");
                }
                other => panic!("{chain}: {other:?}"),
            }
        }
        assert!(matches!(
            lowered("public class C { public void go() { @ } }"),
            Err(TemplateError::Java(_))
        ));
        assert!(matches!(
            lowered("public class C { private int x; }"),
            Err(TemplateError::Shape { method, .. }) if method.is_empty()
        ));
    }

    #[test]
    fn bad_or_missing_headers_are_typed_errors() {
        let (header, java) = split_header("// 7 | Hybrid | [21], [27]\npackage p;\n").unwrap();
        assert_eq!(
            header,
            Header {
                id: 7,
                name: "Hybrid",
                sources: "[21], [27]"
            }
        );
        assert_eq!(java, "package p;\n");
        for text in [
            "",
            "package p;\n",
            "// x | Name | ext\n",
            "// 0 | Name | ext\n",
            "// 300 | Name | ext\n",
            "// 1 | Name\n",
            "// 1 | | ext\n",
            "// 1 | Name | ext | more\n",
            "//1 | Name | ext\n",
        ] {
            assert!(
                matches!(split_header(text), Err(TemplateError::Header(_))),
                "{text:?}"
            );
        }
    }

    #[test]
    fn var_type_finds_params_and_locals() {
        let m = TemplateMethod::new("go", JavaType::Void)
            .param(JavaType::char_array(), "pwd")
            .pre(Stmt::decl_init(
                JavaType::byte_array(),
                "salt",
                Expr::new_array(JavaType::Byte, Expr::int(32)),
            ));
        assert_eq!(m.var_type("pwd"), Some(&JavaType::char_array()));
        assert_eq!(m.var_type("salt"), Some(&JavaType::byte_array()));
        assert_eq!(m.var_type("ghost"), None);
    }
}
