//! CPLEX LP-format export and import.
//!
//! Lets a [`Model`] be written to the ubiquitous `.lp` text format (read
//! by CPLEX, Gurobi, GLPK, HiGHS, and the LPsolve the paper used) so
//! solutions can be cross-checked against external solvers, and read back
//! for round-trip testing. The supported subset is exactly what [`Model`]
//! can express: a linear objective over non-negative variables and
//! `<=` / `>=` / `=` constraints.

use crate::model::{Model, Relation, Sense};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Error from [`parse_lp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLpError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLpError {}

/// Sanitises a name for the LP format (alphanumerics, `_`, `.`; must not
/// start with a digit or `e`/`E` which would parse as a number).
fn sanitise(name: &str, fallback: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty()
        || out.starts_with(|c: char| c.is_ascii_digit() || c == '.')
        || out.starts_with('e')
        || out.starts_with('E')
    {
        out = format!("{fallback}{out}");
    }
    out
}

/// Serialises `model` to LP format.
///
/// Variable and constraint names are sanitised and de-duplicated (suffixed
/// with their index when needed), so the output is always well-formed.
///
/// ```
/// use cca_lp::{parse_lp, write_lp, Model, Relation};
/// let mut m = Model::maximize();
/// let x = m.add_var("x", 3.0);
/// m.add_constraint_with("cap", Relation::Le, 4.0, [(x, 1.0)]);
/// let text = write_lp(&m);
/// assert!(text.contains("Maximize"));
/// let parsed = parse_lp(&text).unwrap();
/// assert_eq!(parsed.num_vars(), 1);
/// ```
#[must_use]
pub fn write_lp(model: &Model) -> String {
    let mut out = String::new();
    let sense = match model.sense() {
        Sense::Minimize => "Minimize",
        Sense::Maximize => "Maximize",
    };

    // Unique variable names.
    let mut seen: HashMap<String, usize> = HashMap::new();
    let var_names: Vec<String> = (0..model.num_vars())
        .map(|i| {
            let base = sanitise(model.var_name(crate::model::Col(i)), "x");
            let count = seen.entry(base.clone()).or_insert(0);
            *count += 1;
            if *count == 1 {
                base
            } else {
                format!("{base}__{i}")
            }
        })
        .collect();

    let _ = writeln!(out, "\\ generated by cca-lp");
    let _ = writeln!(out, "{sense}");
    let mut obj_terms = String::new();
    let mut first = true;
    for i in 0..model.num_vars() {
        let c = model.objective_coeff(crate::model::Col(i));
        if c != 0.0 {
            push_term(&mut obj_terms, c, &var_names[i], first);
            first = false;
        }
    }
    if first {
        // LP format requires at least one objective term.
        obj_terms.push_str(&format!("0 {}", var_names.first().map_or("x0", |s| s)));
    }
    let _ = writeln!(out, " obj: {obj_terms}");

    let _ = writeln!(out, "Subject To");
    for (r, row) in model.rows.iter().enumerate() {
        let mut terms = String::new();
        let mut first = true;
        // Accumulate duplicates for a canonical representation.
        let mut acc: HashMap<usize, f64> = HashMap::new();
        for &(c, v) in &row.coeffs {
            *acc.entry(c).or_default() += v;
        }
        let mut cols: Vec<usize> = acc.keys().copied().collect();
        cols.sort_unstable();
        for c in cols {
            let v = acc[&c];
            if v != 0.0 {
                push_term(&mut terms, v, &var_names[c], first);
                first = false;
            }
        }
        if first {
            terms.push_str(&format!("0 {}", var_names.first().map_or("x0", |s| s)));
        }
        let rel = match row.relation {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        };
        let name = sanitise(&row.name, "c");
        let _ = writeln!(out, " {name}__{r}: {terms} {rel} {}", fmt_num(row.rhs));
    }

    // All variables are non-negative: the LP-format default needs no
    // Bounds section, but an explicit one documents intent.
    let _ = writeln!(out, "Bounds");
    for name in &var_names {
        let _ = writeln!(out, " 0 <= {name}");
    }
    let _ = writeln!(out, "End");
    out
}

fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn push_term(out: &mut String, coeff: f64, name: &str, first: bool) {
    if first {
        if coeff < 0.0 {
            out.push_str("- ");
        }
    } else if coeff < 0.0 {
        out.push_str(" - ");
    } else {
        out.push_str(" + ");
    }
    let a = coeff.abs();
    if (a - 1.0).abs() < f64::EPSILON {
        out.push_str(name);
    } else {
        let _ = write!(out, "{} {name}", fmt_num(a));
    }
}

/// A parsed constraint: `(name, relation, rhs, terms)`.
type ParsedConstraint = (String, Relation, f64, Vec<(String, f64)>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Preamble,
    Objective,
    Constraints,
    Bounds,
    End,
}

/// Parses the LP-format subset produced by [`write_lp`] back into a
/// [`Model`].
///
/// Supported: `Minimize`/`Maximize` (and common abbreviations), one
/// objective, `Subject To` with named constraints, an optional `Bounds`
/// section with `0 <= var` lines (anything else is rejected — the model
/// only supports non-negative variables), `End`.
///
/// # Errors
///
/// Returns [`ParseLpError`] with the offending line on malformed input.
pub fn parse_lp(text: &str) -> Result<Model, ParseLpError> {
    let mut section = Section::Preamble;
    let mut maximize = false;
    let mut objective: Vec<(String, f64)> = Vec::new();
    let mut constraints: Vec<ParsedConstraint> = Vec::new();
    let mut pending: Option<String> = None; // wrapped constraint lines

    let flush = |buf: &str,
                 constraints: &mut Vec<ParsedConstraint>,
                 line_no: usize|
     -> Result<(), ParseLpError> {
        if buf.trim().is_empty() {
            return Ok(());
        }
        let (name, rest) = match buf.split_once(':') {
            Some((n, r)) => (n.trim().to_string(), r),
            None => (format!("c{}", constraints.len()), buf),
        };
        let (relation, idx) = if let Some(i) = rest.find("<=") {
            (Relation::Le, i)
        } else if let Some(i) = rest.find(">=") {
            (Relation::Ge, i)
        } else if let Some(i) = rest.find('=') {
            (Relation::Eq, i)
        } else {
            return Err(ParseLpError {
                line: line_no,
                message: "constraint without relation".into(),
            });
        };
        let lhs = &rest[..idx];
        let rhs_str = rest[idx..].trim_start_matches(['<', '>', '=']).trim();
        // Allow a space between a sign and the number ("- 3").
        let rhs_compact = rhs_str.replace(' ', "");
        let rhs: f64 = rhs_compact.parse().map_err(|_| ParseLpError {
            line: line_no,
            message: format!("invalid rhs {rhs_str:?}"),
        })?;
        let terms = parse_terms(lhs, line_no)?;
        constraints.push((name, relation, rhs, terms));
        Ok(())
    };

    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.split('\\').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        let new_section = match lower.as_str() {
            "minimize" | "minimise" | "min" => Some((Section::Objective, false)),
            "maximize" | "maximise" | "max" => Some((Section::Objective, true)),
            "subject to" | "st" | "s.t." | "such that" => Some((Section::Constraints, maximize)),
            "bounds" => Some((Section::Bounds, maximize)),
            "end" => Some((Section::End, maximize)),
            _ => None,
        };
        if let Some((s, m)) = new_section {
            if let Some(buf) = pending.take() {
                flush(&buf, &mut constraints, line_no)?;
            }
            section = s;
            maximize = m;
            continue;
        }
        match section {
            Section::Preamble => {
                return Err(ParseLpError {
                    line: line_no,
                    message: "expected Minimize or Maximize".into(),
                })
            }
            Section::Objective => {
                let body = match line.split_once(':') {
                    Some((_, rest)) => rest,
                    None => line,
                };
                objective.extend(parse_terms(body, line_no)?);
            }
            Section::Constraints => {
                // A new named constraint starts a fresh buffer; continuation
                // lines are appended.
                let starts_new = line.contains(':');
                if starts_new {
                    if let Some(buf) = pending.take() {
                        flush(&buf, &mut constraints, line_no)?;
                    }
                    pending = Some(line.to_string());
                } else if let Some(buf) = pending.as_mut() {
                    buf.push(' ');
                    buf.push_str(line);
                } else {
                    pending = Some(line.to_string());
                }
                // Flush immediately when the relation is present.
                if pending
                    .as_deref()
                    .is_some_and(|b| b.contains("<=") || b.contains(">=") || b.rfind('=').is_some())
                {
                    let buf = pending.take().expect("just checked");
                    flush(&buf, &mut constraints, line_no)?;
                }
            }
            Section::Bounds => {
                // Only `0 <= var` is representable by the model.
                let cleaned = line.replace(' ', "");
                let var = cleaned.strip_prefix("0<=");
                let ok = var.is_some_and(|v| !v.is_empty() && !v.contains("<="));
                if !ok {
                    return Err(ParseLpError {
                        line: line_no,
                        message: format!("unsupported bound {line:?} (only `0 <= var`)"),
                    });
                }
            }
            Section::End => {
                return Err(ParseLpError {
                    line: line_no,
                    message: "content after End".into(),
                })
            }
        }
    }
    if let Some(buf) = pending.take() {
        flush(&buf, &mut constraints, text.lines().count())?;
    }

    // Assemble the model: variables in order of first appearance.
    let mut model = if maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let mut vars: HashMap<String, crate::model::Col> = HashMap::new();
    let mut var_order: Vec<String> = Vec::new();
    for (name, _) in &objective {
        if !vars.contains_key(name) {
            var_order.push(name.clone());
            vars.insert(name.clone(), crate::model::Col(var_order.len() - 1));
        }
    }
    for (_, _, _, terms) in &constraints {
        for (name, _) in terms {
            if !vars.contains_key(name) {
                var_order.push(name.clone());
                vars.insert(name.clone(), crate::model::Col(var_order.len() - 1));
            }
        }
    }
    let mut cols = HashMap::new();
    for name in &var_order {
        let obj: f64 = objective
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, c)| c)
            .sum();
        cols.insert(name.clone(), model.add_var(name.clone(), obj));
    }
    for (name, relation, rhs, terms) in constraints {
        let row = model.add_constraint(name, relation, rhs);
        for (var, coeff) in terms {
            model.set_coeff(row, cols[&var], coeff);
        }
    }
    Ok(model)
}

/// Parses `3 x + y - 2.5 z` style linear expressions.
fn parse_terms(text: &str, line_no: usize) -> Result<Vec<(String, f64)>, ParseLpError> {
    let mut terms = Vec::new();
    let mut sign = 1.0;
    let mut coeff: Option<f64> = None;
    for token in text
        .replace('+', " + ")
        .replace('-', " - ")
        .split_whitespace()
    {
        match token {
            "+" => {
                sign = 1.0;
            }
            "-" => {
                sign = -sign;
            }
            t if t
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '.') =>
            {
                let v: f64 = t.parse().map_err(|_| ParseLpError {
                    line: line_no,
                    message: format!("invalid number {t:?}"),
                })?;
                coeff = Some(coeff.unwrap_or(1.0) * v);
            }
            name => {
                let c = sign * coeff.take().unwrap_or(1.0);
                terms.push((name.to_string(), c));
                sign = 1.0;
            }
        }
    }
    if coeff.is_some() {
        return Err(ParseLpError {
            line: line_no,
            message: "dangling coefficient without variable".into(),
        });
    }
    Ok(terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SolverOptions;
    use crate::tol::approx_eq;

    fn sample_model() -> Model {
        let mut m = Model::maximize();
        let x = m.add_var("x", 3.0);
        let y = m.add_var("y", 2.0);
        let z = m.add_var("weird name!", -0.5);
        m.add_constraint_with("r1", Relation::Le, 4.0, [(x, 1.0), (y, 1.0)]);
        m.add_constraint_with("r2", Relation::Ge, -6.0, [(x, -1.0), (y, -3.0), (z, 0.25)]);
        m.add_constraint_with("r3", Relation::Eq, 2.0, [(x, 1.0), (z, 1.0)]);
        m
    }

    #[test]
    fn writes_wellformed_lp() {
        let text = write_lp(&sample_model());
        assert!(text.starts_with("\\ generated by cca-lp"));
        assert!(text.contains("Maximize"));
        assert!(text.contains("Subject To"));
        assert!(text.contains("End"));
        assert!(text.contains("weird_name_"));
    }

    #[test]
    fn round_trip_preserves_optimum() {
        let m = sample_model();
        let text = write_lp(&m);
        let parsed = parse_lp(&text).expect("round trip parses");
        assert_eq!(parsed.num_vars(), m.num_vars());
        assert_eq!(parsed.num_constraints(), m.num_constraints());
        let a = m.solve(&SolverOptions::default()).unwrap();
        let b = parsed.solve(&SolverOptions::default()).unwrap();
        assert!(
            approx_eq(a.objective, b.objective, 1e-9),
            "{} vs {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn round_trip_minimisation_with_empty_objective() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 0.0);
        m.add_constraint_with("r", Relation::Ge, 3.0, [(x, 2.0)]);
        let parsed = parse_lp(&write_lp(&m)).unwrap();
        let sol = parsed.solve(&SolverOptions::default()).unwrap();
        assert!(approx_eq(sol.objective, 0.0, 1e-9));
        assert!(sol.values[0] >= 1.5 - 1e-9);
    }

    #[test]
    fn parses_handwritten_lp() {
        let text = "\
Minimize
 obj: 2 x + 3 y
Subject To
 cover: x + y >= 10
 xmin: x >= 3
Bounds
 0 <= x
 0 <= y
End
";
        let m = parse_lp(text).unwrap();
        let sol = m.solve(&SolverOptions::default()).unwrap();
        assert!(approx_eq(sol.objective, 20.0, 1e-9));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_lp("nonsense before a section").is_err());
        assert!(parse_lp("Minimize\n obj: x\nSubject To\n r: x ? 3\nEnd").is_err());
        assert!(parse_lp("Minimize\n obj: x\nSubject To\n r: x >= abc\nEnd").is_err());
        let bad_bound = "Minimize\n obj: x\nSubject To\n r: x >= 1\nBounds\n 1 <= x\nEnd";
        assert!(parse_lp(bad_bound).is_err());
    }

    #[test]
    fn negative_and_fractional_coefficients_survive() {
        let text = "\
Minimize
 obj: - x + 0.5 y
Subject To
 r: - 2 x + 1.5 y >= - 3
End
";
        let m = parse_lp(text).unwrap();
        // min -x + 0.5y s.t. -2x + 1.5y >= -3 -> x <= (3 + 1.5y)/2;
        // objective decreases with x, so unbounded? x <= 1.5 + 0.75y but y
        // also grows... with y = 0: x <= 1.5, objective -1.5. Raising y by 1
        // raises the x bound by 0.75: Δobj = -0.75 + 0.5 < 0 -> unbounded.
        assert!(matches!(
            m.solve(&SolverOptions::default()),
            Err(crate::LpError::Unbounded)
        ));
    }

    #[test]
    fn figure4_lp_exports_cleanly() {
        // Smoke test: a realistic model from the placement domain exports
        // and re-imports with the same optimum.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..6).map(|i| m.add_var(format!("x_{i}"), 0.0)).collect();
        let z = m.add_var("z_0", 2.5);
        for i in 0..3 {
            m.add_constraint_with(
                format!("assign_{i}"),
                Relation::Eq,
                1.0,
                [(vars[2 * i], 1.0), (vars[2 * i + 1], 1.0)],
            );
        }
        m.add_constraint_with(
            "cut_0",
            Relation::Ge,
            0.0,
            [(z, 1.0), (vars[0], -0.5), (vars[2], 0.5)],
        );
        let parsed = parse_lp(&write_lp(&m)).unwrap();
        let a = m.solve(&SolverOptions::default()).unwrap();
        let b = parsed.solve(&SolverOptions::default()).unwrap();
        assert!(approx_eq(a.objective, b.objective, 1e-9));
    }
}
