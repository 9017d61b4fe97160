//! From-scratch linear programming solvers for the CCA reproduction.
//!
//! The paper ("Correlation-Aware Object Placement for Multi-Object
//! Operations", ICDCS 2008) relaxes an NP-hard integer program to a linear
//! program and solves it with off-the-shelf LP software (LPsolve). This crate
//! provides that substrate in pure Rust:
//!
//! * [`Model`] — a builder for linear programs over non-negative variables
//!   with `<=`, `>=` and `=` constraints.
//! * A **dense two-phase tableau simplex** ([`Model::solve_dense`]) used as a
//!   small-scale reference oracle.
//! * A **sparse revised simplex** ([`Model::solve`]) with an LU-factorised
//!   basis, product-form eta updates, Dantzig pricing with a Bland fallback
//!   for anti-cycling, and periodic refactorisation. This is the workhorse
//!   used by `cca-core` for the placement LP.
//!
//! Both solvers share one standard-form construction so they can be
//! cross-checked against each other (and are, extensively, in the tests).
//!
//! # Example
//!
//! Maximise `3x + 2y` subject to `x + y <= 4`, `x + 3y <= 6`:
//!
//! ```
//! use cca_lp::{Model, Relation};
//!
//! # fn main() -> Result<(), cca_lp::LpError> {
//! let mut m = Model::maximize();
//! let x = m.add_var("x", 3.0);
//! let y = m.add_var("y", 2.0);
//! let r1 = m.add_constraint("r1", Relation::Le, 4.0);
//! let r2 = m.add_constraint("r2", Relation::Le, 6.0);
//! m.set_coeff(r1, x, 1.0);
//! m.set_coeff(r1, y, 1.0);
//! m.set_coeff(r2, x, 1.0);
//! m.set_coeff(r2, y, 3.0);
//! let sol = m.solve(&Default::default())?;
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Index-based loops over matrix rows/nodes are the clearest idiom for the
// numeric code in this crate; the iterator rewrites clippy suggests obscure
// the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod dense;
pub mod lpformat;
mod model;
mod standard;
pub mod tol;
mod validate;

pub mod sparse;

pub use lpformat::{parse_lp, write_lp, ParseLpError};
pub use model::{Col, LpError, Model, Relation, Row, Sense, Solution, SolveStatus, SolverOptions};
pub use validate::{validate_solution, Violation};
