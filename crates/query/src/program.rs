//! Non-recursive Datalog programs: a sequence of rules, each defining (or
//! extending, when several rules share a head) a derived relation that
//! later rules may use.
//!
//! ```text
//! # wedges, then triangles built from them
//! wedge(x, y, z)  :- E(x, y), E(y, z).
//! tri(x, y, z)    :- wedge(x, y, z), E(x, z).
//! ```
//!
//! Rules are evaluated top-to-bottom with the worst-case-optimal join;
//! recursion is rejected (a rule whose body mentions its own head — or any
//! head not yet materialised — fails with `UnknownRelation`, except
//! same-head accumulation across *earlier* rules, which is a union).

use crate::exec::{execute, QueryResult};
use crate::parser::{parse_query, ParsedQuery};
use crate::{Catalog, QueryTextError};
use wcoj_storage::ops::union;

/// A parsed multi-rule program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Rules in source order.
    pub rules: Vec<ParsedQuery>,
}

/// Parses a program: one rule per `.`-terminated statement; `#` and `%`
/// start line comments.
///
/// # Errors
/// [`QueryTextError::Parse`] on the first malformed rule.
pub fn parse_program(src: &str) -> Result<Program, QueryTextError> {
    // One quote-aware pass: `.` terminates a statement and `#`/`%` opens
    // a line comment only *outside* string literals. (The old
    // comment-strip + `split('.')` was blind to quotes, so a constant
    // like "v1.2" or "100%" was silently chopped apart.)
    let mut statements: Vec<String> = Vec::new();
    let mut stmt = String::new();
    let mut in_str = false;
    let mut in_comment = false;
    for c in src.chars() {
        if in_comment {
            if c == '\n' {
                in_comment = false;
                stmt.push('\n');
            }
            continue;
        }
        match c {
            '"' => {
                in_str = !in_str;
                stmt.push(c);
            }
            '#' | '%' if !in_str => in_comment = true,
            '.' if !in_str => statements.push(std::mem::take(&mut stmt)),
            _ => stmt.push(c),
        }
    }
    // A trailing statement without a final '.' still parses; if it holds
    // an unterminated string literal, parse_query reports the typed
    // error (the '.'-retaining split cannot mask it).
    if !stmt.trim().is_empty() {
        statements.push(stmt);
    }
    let mut rules = Vec::new();
    for stmt in &statements {
        if stmt.trim().is_empty() {
            continue;
        }
        rules.push(parse_query(stmt)?);
    }
    if rules.is_empty() {
        return Err(QueryTextError::Parse {
            message: "program has no rules".into(),
            at: 0,
        });
    }
    Ok(Program { rules })
}

/// Evaluates a program against (and into) `catalog`: each rule's result is
/// registered under its head name, so later rules can use it. Returns the
/// per-rule results in order.
///
/// # Errors
/// Binding/evaluation errors from any rule, including
/// [`QueryTextError::UnknownRelation`] for recursion or use-before-define.
pub fn run_program(
    program: &Program,
    catalog: &mut Catalog,
) -> Result<Vec<(String, QueryResult)>, QueryTextError> {
    let mut outputs = Vec::with_capacity(program.rules.len());
    for rule in &program.rules {
        let mut result = execute(rule, catalog)?;
        // Canonicalise the derived schema positionally (attrs 0..arity):
        // different rules bind different variable ids, but a stored
        // relation's identity is purely positional.
        result.relation = canonicalize(&result.relation);
        let merged = match catalog.get(&rule.head_name) {
            // A second rule for the same head unions in (schemas agree by
            // construction when arities do; mismatched arity is an error).
            Some(existing) if outputs.iter().any(|(n, _)| n == &rule.head_name) => {
                if existing.arity() != result.relation.arity() {
                    return Err(QueryTextError::ArityMismatch {
                        relation: rule.head_name.clone(),
                        expected: existing.arity(),
                        got: result.relation.arity(),
                    });
                }
                union(&existing, &result.relation)
                    .map_err(|e| QueryTextError::Eval(e.to_string()))?
            }
            _ => result.relation.clone(),
        };
        catalog.insert(rule.head_name.clone(), merged.clone());
        outputs.push((
            rule.head_name.clone(),
            QueryResult {
                relation: merged,
                columns: result.columns,
            },
        ));
    }
    Ok(outputs)
}

/// Rebuilds `rel` with the canonical positional schema `(0, …, arity−1)`.
fn canonicalize(rel: &wcoj_storage::Relation) -> wcoj_storage::Relation {
    use wcoj_storage::{Attr, Relation, Schema};
    let schema =
        Schema::new((0..rel.arity() as u32).map(Attr).collect()).expect("sequential attrs");
    let mut out = Relation::empty(schema);
    for row in rel.iter_rows() {
        out.push_row(row).expect("same arity");
    }
    out.sort_dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{Relation, Schema, Value};

    fn edge_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            "E",
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[2, 3], &[1, 3], &[3, 4]]),
        );
        c
    }

    #[test]
    fn two_stage_program() {
        let p = parse_program(
            "# derive wedges, then close them\n\
             wedge(x, y, z) :- E(x, y), E(y, z).\n\
             tri(x, y, z) :- wedge(x, y, z), E(x, z).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        let mut c = edge_catalog();
        let out = run_program(&p, &mut c).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "wedge");
        assert_eq!(out[1].0, "tri");
        assert_eq!(out[1].1.relation.len(), 1);
        assert!(out[1]
            .1
            .relation
            .contains_row(&[Value(1), Value(2), Value(3)]));
        // derived relations are registered
        assert!(c.get("wedge").is_some());
        assert!(c.get("tri").is_some());
    }

    #[test]
    fn multiple_rules_union_same_head() {
        let p = parse_program(
            "reach(x, y) :- E(x, y).\n\
             reach(x, z) :- E(x, y), E(y, z).",
        )
        .unwrap();
        let mut c = edge_catalog();
        let out = run_program(&p, &mut c).unwrap();
        // 4 direct edges ∪ 2-paths {(1,3),(2,4),(1,4)} → 4 + 2 new = 6
        // ((1,3) already a direct edge)
        assert_eq!(out[1].1.relation.len(), 6);
    }

    #[test]
    fn program_runs_on_service_catalog() {
        use std::sync::Arc;
        use wcoj_service::{Service, ServiceConfig};
        let p = parse_program(
            "wedge(x, y, z) :- E(x, y), E(y, z).\n\
             tri(x, y, z) :- wedge(x, y, z), E(x, z).",
        )
        .unwrap();
        let mut seq_cat = edge_catalog();
        let seq = run_program(&p, &mut seq_cat).unwrap();
        // planning fine enough that each rule's join splits into shards
        let service = Arc::new(Service::new(ServiceConfig {
            exec: wcoj_exec::ExecConfig {
                shard_min_size: 1,
                ..wcoj_exec::ExecConfig::default()
            },
            ..ServiceConfig::with_workers(4)
        }));
        let mut svc_cat = edge_catalog();
        svc_cat.set_service(Some(Arc::clone(&service)));
        let svc = run_program(&p, &mut svc_cat).unwrap();
        assert_eq!(seq.len(), svc.len());
        for ((n1, r1), (n2, r2)) in seq.iter().zip(&svc) {
            assert_eq!(n1, n2);
            assert_eq!(r1.relation, r2.relation, "rule {n1}");
        }
        assert_eq!(service.counters().submitted, 2, "one submission per rule");
    }

    #[test]
    fn program_on_overloaded_service_surfaces_typed_rejection() {
        // The Datalog routing path sheds the same way the text-query path
        // does: a full admission queue aborts the program with the typed
        // Overloaded error instead of panicking mid-rule.
        use std::sync::Arc;
        let (service, blockers) = crate::test_support::overloaded_service(29);

        let p = parse_program("wedge(x, y, z) :- E(x, y), E(y, z).").unwrap();
        let mut c = edge_catalog();
        c.set_service(Some(Arc::clone(&service)));
        assert!(matches!(
            run_program(&p, &mut c),
            Err(crate::QueryTextError::Overloaded)
        ));
        for b in blockers {
            b.wait().unwrap();
        }
        let out = run_program(&p, &mut c).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn recursion_rejected() {
        let p = parse_program("t(x, y) :- t(x, y), E(x, y).").unwrap();
        let mut c = edge_catalog();
        assert!(matches!(
            run_program(&p, &mut c),
            Err(QueryTextError::UnknownRelation(_))
        ));
    }

    #[test]
    fn use_before_define_rejected() {
        let p = parse_program(
            "a(x, y) :- b(x, y).\n\
             b(x, y) :- E(x, y).",
        )
        .unwrap();
        let mut c = edge_catalog();
        assert!(matches!(
            run_program(&p, &mut c),
            Err(QueryTextError::UnknownRelation(_))
        ));
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_program(
            "% leading comment\n\
             \n\
             a(x) :- E(x, y). # trailing comment\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        let mut c = edge_catalog();
        let out = run_program(&p, &mut c).unwrap();
        assert_eq!(out[0].1.relation.len(), 3); // sources {1, 2, 3}
    }

    #[test]
    fn empty_program_rejected() {
        assert!(parse_program("# nothing here\n").is_err());
    }

    #[test]
    fn string_constants_survive_statement_splitting() {
        // Satellite bugfix pin: '.', '#', and '%' inside string literals
        // are data, not statement terminators or comment openers. The
        // line-wise comment strip + split('.') used to corrupt these.
        use crate::parser::ParsedTerm;
        let p = parse_program(r##"a(x) :- R("v1.2", x). b(x) :- R("#80%", x)."##).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].atoms[0].terms[0], ParsedTerm::Str("v1.2".into()));
        assert_eq!(p.rules[1].atoms[0].terms[0], ParsedTerm::Str("#80%".into()));

        // End-to-end: the dotted string constant actually filters.
        let mut c = Catalog::new();
        let r = crate::load_csv("v1.2,10\nv2.0,20\n", c.dictionary()).unwrap();
        c.insert("R", r);
        let p = parse_program(r#"hits(x) :- R("v1.2", x)."#).unwrap();
        let out = run_program(&p, &mut c).unwrap();
        assert_eq!(out[0].1.relation.len(), 1);
        assert!(out[0].1.relation.contains_row(&[Value(10)]));
    }

    #[test]
    fn unterminated_string_is_a_typed_error_not_a_silent_chop() {
        // The '.' sits inside an unterminated literal: the splitter must
        // not treat it as a terminator, and the rule must fail with the
        // parser's typed error instead of something mangled succeeding.
        let e = parse_program(r#"a(x) :- R("v1. , x)"#).unwrap_err();
        assert!(matches!(e, QueryTextError::Parse { .. }), "{e}");
    }

    #[test]
    fn comments_inside_strings_are_data() {
        let p = parse_program(
            "a(x) :- R(\"keep#this\", x). % real comment with \"quote\n\
             b(x) :- R(\"and%this\", x).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn conflicting_arity_union_rejected() {
        let p = parse_program(
            "a(x, y) :- E(x, y).\n\
             a(x) :- E(x, y).",
        )
        .unwrap();
        let mut c = edge_catalog();
        assert!(matches!(
            run_program(&p, &mut c),
            Err(QueryTextError::ArityMismatch { .. })
        ));
    }
}
