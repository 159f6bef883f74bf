//! DIMACS CNF serialization, for debugging and interoperability.
//!
//! The synthesis pipeline never goes through files, but being able to dump
//! the exact CNF a query produced (and re-load it into any external solver)
//! is invaluable when debugging an encoding.

use crate::{Lit, Solver, Var};
use std::fmt::Write as _;

/// A DIMACS parse failure, carrying the 1-based line number and the
/// offending text so the error is actionable without re-opening the file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line number of the failure (0 for whole-file errors such as
    /// a missing header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl DimacsError {
    fn at(line: usize, message: String) -> DimacsError {
        DimacsError { line, message }
    }
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "dimacs: {}", self.message)
        } else {
            write!(f, "dimacs: line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for DimacsError {}

/// A plain CNF formula: a clause list over `num_vars` variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables; variable indices in clauses are `0..num_vars`.
    pub num_vars: usize,
    /// Clauses as literal lists.
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Adds a clause, growing `num_vars` as needed.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        let c: Vec<Lit> = lits.into_iter().collect();
        for &l in &c {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.clauses.push(c);
    }

    /// Renders in DIMACS format (1-based, negative = negated).
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for &l in c {
                let n = l.var().index() as i64 + 1;
                let _ = write!(out, "{} ", if l.is_positive() { n } else { -n });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parses DIMACS text.
    ///
    /// # Errors
    ///
    /// Returns a [`DimacsError`] locating the first malformed token or a
    /// missing header.
    pub fn parse_dimacs(text: &str) -> Result<Cnf, DimacsError> {
        let mut cnf = Cnf::new();
        let mut declared_vars = 0usize;
        let mut current: Vec<Lit> = Vec::new();
        let mut saw_header = false;
        for (lineno, line) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "cnf" {
                    return Err(DimacsError::at(
                        lineno,
                        format!("malformed problem line: {line:?}"),
                    ));
                }
                declared_vars = parts[1].parse().map_err(|e| {
                    DimacsError::at(lineno, format!("bad variable count {:?}: {e}", parts[1]))
                })?;
                saw_header = true;
                continue;
            }
            for tok in line.split_whitespace() {
                let n: i64 = tok
                    .parse()
                    .map_err(|e| DimacsError::at(lineno, format!("bad literal {tok:?}: {e}")))?;
                if n == 0 {
                    cnf.clauses.push(std::mem::take(&mut current));
                } else {
                    let v = Var::from_index((n.unsigned_abs() as usize) - 1);
                    current.push(Lit::new(v, n > 0));
                }
            }
        }
        if !saw_header {
            return Err(DimacsError::at(0, "missing 'p cnf' header".to_string()));
        }
        if !current.is_empty() {
            cnf.clauses.push(current);
        }
        cnf.num_vars = cnf.num_vars.max(declared_vars);
        for c in &cnf.clauses {
            for &l in c {
                cnf.num_vars = cnf.num_vars.max(l.var().index() + 1);
            }
        }
        Ok(cnf)
    }

    /// Loads this formula into a fresh [`Solver`].
    pub fn into_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut cnf = Cnf::new();
        let v0 = Var::from_index(0);
        let v1 = Var::from_index(1);
        let v2 = Var::from_index(2);
        cnf.add_clause([Lit::pos(v0), Lit::neg(v1)]);
        cnf.add_clause([Lit::pos(v2)]);
        let text = cnf.to_dimacs();
        let back = Cnf::parse_dimacs(&text).unwrap();
        assert_eq!(cnf, back);
    }

    #[test]
    fn parse_with_comments_and_blank_lines() {
        let text = "c a comment\n\np cnf 2 2\n1 -2 0\n2 0\n";
        let cnf = Cnf::parse_dimacs(text).unwrap();
        assert_eq!(cnf.num_vars, 2);
        assert_eq!(cnf.clauses.len(), 2);
        let mut s = cnf.into_solver();
        assert!(s
            .solve(
                &[],
                &mut crate::NoExchange,
                &crate::SolveBudget::unlimited()
            )
            .is_sat());
    }

    #[test]
    fn missing_header_is_error() {
        let err = Cnf::parse_dimacs("1 2 0\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.to_string().contains("missing 'p cnf' header"), "{err}");
    }

    #[test]
    fn bad_literal_is_error_with_line_number() {
        let err = Cnf::parse_dimacs("p cnf 1 1\nc fine\nxyz 0\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("bad literal \"xyz\""), "{err}");
    }

    #[test]
    fn malformed_header_reports_its_line() {
        let err = Cnf::parse_dimacs("c intro\np cnf oops\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn solver_agrees_with_text() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let cnf = Cnf::parse_dimacs(text).unwrap();
        let mut s = cnf.into_solver();
        assert!(!s
            .solve(
                &[],
                &mut crate::NoExchange,
                &crate::SolveBudget::unlimited()
            )
            .is_sat());
    }
}
