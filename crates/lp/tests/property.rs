//! Property-based tests of the LP solvers: the dense reference simplex and
//! the sparse revised simplex must agree on randomly generated models, and
//! every reported optimum must validate from first principles.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};
use cca_lp::{validate_solution, LpError, Model, Relation, SolverOptions};

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/property.regressions");

/// A random constraint row: `(relation code, rhs, coefficients)`.
type RandomRow = (u8, i8, Vec<(usize, i8)>);

/// A randomly generated model description the harness can shrink.
#[derive(Debug, Clone)]
struct RandomLp {
    objective: Vec<i8>,
    rows: Vec<RandomRow>,
    maximize: bool,
}

impl Shrink for RandomLp {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Rows shrink freely (structurally and element-wise): `build` is
        // total for any row content.
        for rows in self.rows.shrink() {
            out.push(RandomLp {
                rows,
                ..self.clone()
            });
        }
        // The objective length fixes the variable count, so only same-length
        // (element-wise) candidates are valid.
        for objective in self.objective.shrink() {
            if objective.len() == self.objective.len() {
                out.push(RandomLp {
                    objective,
                    ..self.clone()
                });
            }
        }
        if self.maximize {
            out.push(RandomLp {
                maximize: false,
                ..self.clone()
            });
        }
        out
    }
}

fn random_lp(rng: &mut StdRng) -> RandomLp {
    let num_vars = rng.random_range(1usize..7);
    let objective = (0..num_vars).map(|_| rng.random_range(-4i8..=6)).collect();
    let rows = gen::vec(rng, 1..6, |r| {
        (
            r.random_range(0u8..3),
            r.random_range(-4i8..=8),
            gen::vec(r, 1..num_vars + 1, |r2| {
                (r2.random_range(0..num_vars), r2.random_range(-3i8..=4))
            }),
        )
    });
    RandomLp {
        objective,
        rows,
        maximize: rng.random(),
    }
}

fn build(lp: &RandomLp) -> Model {
    let mut m = if lp.maximize {
        Model::maximize()
    } else {
        Model::minimize()
    };
    let vars: Vec<_> = lp
        .objective
        .iter()
        .enumerate()
        .map(|(i, &c)| m.add_var(format!("x{i}"), f64::from(c)))
        .collect();
    for (r, (rel, rhs, coeffs)) in lp.rows.iter().enumerate() {
        // Shrinking can empty a row's coefficients; the generator always
        // emits at least one, so skip such rows rather than build 0 ⋈ rhs.
        if coeffs.is_empty() {
            continue;
        }
        let relation = match rel % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let row = m.add_constraint(format!("r{r}"), relation, f64::from(*rhs));
        for &(var, coeff) in coeffs {
            // Index modulo the variable count keeps shrunk cases in range.
            m.set_coeff(row, vars[var % vars.len()], f64::from(coeff));
        }
    }
    m
}

/// Dense and sparse solvers agree on status and, when optimal, on the
/// objective value; optimal solutions validate from first principles.
#[test]
fn dense_and_sparse_agree() {
    Checker::new("dense_and_sparse_agree")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(random_lp, |lp| {
            let model = build(lp);
            let dense = model.solve_dense();
            let sparse = model.solve(&SolverOptions::default());
            match (dense, sparse) {
                (Ok(d), Ok(s)) => {
                    let scale = 1.0 + d.objective.abs().max(s.objective.abs());
                    prop_assert!(
                        (d.objective - s.objective).abs() < 1e-6 * scale,
                        "dense {} vs sparse {}",
                        d.objective,
                        s.objective
                    );
                    let violations = validate_solution(&model, &s);
                    prop_assert!(violations.is_empty(), "sparse violations: {violations:?}");
                    let violations = validate_solution(&model, &d);
                    prop_assert!(violations.is_empty(), "dense violations: {violations:?}");
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
                (d, s) => prop_assert!(false, "status mismatch: dense {d:?}, sparse {s:?}"),
            }
            Ok(())
        });
}

/// Strong duality: at a reported optimum, the dual objective b'y equals
/// the primal objective (both solvers).
#[test]
fn strong_duality_holds() {
    Checker::new("strong_duality_holds")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(random_lp, |lp| {
            let model = build(lp);
            if let Ok(sol) = model.solve(&SolverOptions::default()) {
                // Dual objective: sum over rows of rhs * dual. Skipped
                // (empty) rows never enter the model, so walk the kept rows
                // in construction order.
                let kept_rhs: Vec<f64> = lp
                    .rows
                    .iter()
                    .filter(|(_, _, coeffs)| !coeffs.is_empty())
                    .map(|&(_, rhs, _)| f64::from(rhs))
                    .collect();
                let mut dual_obj = 0.0;
                // Row handles are dense indices by construction.
                for (rhs, dual) in kept_rhs
                    .iter()
                    .zip(&sol.duals)
                    .take(model.num_constraints())
                {
                    dual_obj += dual * rhs;
                }
                let scale = 1.0 + sol.objective.abs();
                prop_assert!(
                    (dual_obj - sol.objective).abs() < 1e-5 * scale,
                    "primal {} vs dual {}",
                    sol.objective,
                    dual_obj
                );
            }
            Ok(())
        });
}

/// Scaling the objective scales the optimum (solver linearity sanity).
#[test]
fn objective_scaling() {
    Checker::new("objective_scaling")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(
            |rng| (random_lp(rng), rng.random_range(1u8..5)),
            |(lp, factor)| {
                let factor = (*factor).max(1); // shrinking may drive it to 0
                let model = build(lp);
                let mut scaled_lp = lp.clone();
                for c in &mut scaled_lp.objective {
                    *c = c.saturating_mul(factor as i8);
                }
                let scaled = build(&scaled_lp);
                // Only meaningful when scaling didn't saturate.
                let saturated = lp.objective.iter().any(|&c| {
                    i16::from(c) * i16::from(factor) != i16::from(c.saturating_mul(factor as i8))
                });
                if !saturated {
                    match (
                        model.solve(&SolverOptions::default()),
                        scaled.solve(&SolverOptions::default()),
                    ) {
                        (Ok(a), Ok(b)) => {
                            let want = a.objective * f64::from(factor);
                            let scale = 1.0 + want.abs();
                            prop_assert!(
                                (b.objective - want).abs() < 1e-5 * scale,
                                "scaled {} vs expected {}",
                                b.objective,
                                want
                            );
                        }
                        (Err(ea), Err(eb)) => prop_assert_eq!(
                            std::mem::discriminant(&ea),
                            std::mem::discriminant(&eb)
                        ),
                        (a, b) => prop_assert!(false, "scaling changed status: {a:?} vs {b:?}"),
                    }
                }
                Ok(())
            },
        );
}

/// LP-format round trips preserve the optimum on random models.
#[test]
fn lp_format_round_trip() {
    Checker::new("lp_format_round_trip")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(random_lp, |lp| {
            let model = build(lp);
            let text = cca_lp::write_lp(&model);
            let parsed = cca_lp::parse_lp(&text);
            prop_assert!(parsed.is_ok(), "parse failed: {:?}\n{text}", parsed.err());
            let parsed = parsed.unwrap();
            match (
                model.solve(&SolverOptions::default()),
                parsed.solve(&SolverOptions::default()),
            ) {
                (Ok(a), Ok(b)) => {
                    let scale = 1.0 + a.objective.abs().max(b.objective.abs());
                    prop_assert!(
                        (a.objective - b.objective).abs() < 1e-6 * scale,
                        "original {} vs reparsed {}",
                        a.objective,
                        b.objective
                    );
                }
                (Err(ea), Err(eb)) => {
                    prop_assert_eq!(std::mem::discriminant(&ea), std::mem::discriminant(&eb))
                }
                (a, b) => prop_assert!(false, "status mismatch: {a:?} vs {b:?}"),
            }
            Ok(())
        });
}

/// Malformed LP text is rejected with a typed error, never a panic: a
/// written model, truncated, byte-flipped or with tokens spliced in, is
/// either parsed or answered with a [`cca_lp::ParseLpError`].
#[test]
fn mutated_lp_texts_never_panic() {
    const INSERTS: [&str; 12] = [
        "\t",
        "\n",
        "18446744073709551615",
        "-1",
        "nodes=",
        "replicas=",
        "v2",
        "<=",
        ":",
        "\\",
        "End\n",
        "Subject To\n",
    ];
    Checker::new("mutated_lp_texts_never_panic")
        .cases(512)
        .regressions(REGRESSIONS)
        .run(
            |rng| {
                let text = cca_lp::write_lp(&build(&random_lp(rng)));
                String::from_utf8_lossy(&gen::mutate(rng, text.as_bytes(), &INSERTS)).into_owned()
            },
            |text: &String| {
                if let Err(e) = cca_lp::parse_lp(text) {
                    prop_assert!(
                        (1..=text.lines().count()).contains(&e.line),
                        "error names no line of the input: {e}"
                    );
                }
                Ok(())
            },
        );
}

/// Deterministic regression cases distilled from fuzzing-style exploration.
#[test]
fn regression_zero_rhs_equalities() {
    let mut m = Model::minimize();
    let x = m.add_var("x", 1.0);
    let y = m.add_var("y", -1.0);
    m.add_constraint_with("e", Relation::Eq, 0.0, [(x, 1.0), (y, -1.0)]);
    m.add_constraint_with("cap", Relation::Le, 5.0, [(x, 1.0), (y, 1.0)]);
    // min x - y with x = y: objective 0 along the segment.
    let sol = m.solve(&SolverOptions::default()).unwrap();
    assert!(sol.objective.abs() < 1e-9);
}

#[test]
fn regression_all_zero_objective() {
    let mut m = Model::maximize();
    let x = m.add_var("x", 0.0);
    m.add_constraint_with("r", Relation::Ge, 2.0, [(x, 1.0)]);
    let sol = m.solve(&SolverOptions::default()).unwrap();
    assert_eq!(sol.objective, 0.0);
    assert!(sol.values[0] >= 2.0 - 1e-9);
}

#[test]
fn regression_redundant_equalities_sparse() {
    let mut m = Model::minimize();
    let x = m.add_var("x", 2.0);
    let y = m.add_var("y", 3.0);
    m.add_constraint_with("e1", Relation::Eq, 4.0, [(x, 1.0), (y, 1.0)]);
    m.add_constraint_with("e2", Relation::Eq, 8.0, [(x, 2.0), (y, 2.0)]);
    m.add_constraint_with("e3", Relation::Eq, 12.0, [(x, 3.0), (y, 3.0)]);
    let sol = m.solve(&SolverOptions::default()).unwrap();
    assert!((sol.objective - 8.0).abs() < 1e-8); // x = 4, y = 0
}

/// The shrunk case once persisted in `property.proptest-regressions`:
/// minimize −x0 subject to −x1 ≥ 0 and x1 ≥ 1. With x ≥ 0 this forces
/// x1 ≤ 0 and x1 ≥ 1 at once, so both solvers must report infeasibility
/// (historically the dense and sparse paths disagreed here).
#[test]
fn regression_conflicting_bounds_on_unused_variable() {
    let lp = RandomLp {
        objective: vec![-1, 0],
        rows: vec![(1, 0, vec![(1, -1)]), (1, 1, vec![(1, 1)])],
        maximize: false,
    };
    let model = build(&lp);
    assert!(matches!(model.solve_dense(), Err(LpError::Infeasible)));
    assert!(matches!(
        model.solve(&SolverOptions::default()),
        Err(LpError::Infeasible)
    ));
}
