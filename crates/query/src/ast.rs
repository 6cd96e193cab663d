//! Query AST: select list plus conjunctive comparison predicates.

use udi_store::{like_match, Value};

/// Comparison operators supported in `WHERE` clauses (§7.1: "the operator
/// can be =, ≠, <, ≤, >, ≥ and LIKE").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `LIKE` with `%`/`_` wildcards, case-insensitive.
    Like,
}

impl CompareOp {
    /// Evaluate the operator under SQL three-valued logic: comparisons with
    /// NULL are not satisfied.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        if let CompareOp::Like = self {
            if left.is_null() || right.is_null() {
                return false;
            }
            return like_match(&left.to_string(), &right.to_string());
        }
        let Some(ord) = left.sql_cmp(right) else {
            return false;
        };
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
            // Returned early at the top of the function; any ordering here
            // is unreachable, and `false` is the safe SQL answer anyway.
            CompareOp::Like => false,
        }
    }

    /// SQL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Like => "LIKE",
        }
    }
}

/// A single predicate `attribute OP literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute the predicate constrains (a mediated/source attribute name).
    pub attribute: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(attribute: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }
}

/// A select–project query: `SELECT select... FROM <table> WHERE predicates`.
///
/// The `FROM` table name is kept for display but is semantically inert —
/// the paper's mediated schema is a single virtual table.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected attributes, in output order.
    pub select: Vec<String>,
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
    /// The (inert) table name from the FROM clause.
    pub from: String,
}

impl Query {
    /// Build a query programmatically.
    pub fn new<I, S>(select: I, predicates: Vec<Predicate>) -> Query
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query {
            select: select.into_iter().map(Into::into).collect(),
            predicates,
            from: "T".to_owned(),
        }
    }

    /// All attribute names the query references (select list then predicate
    /// attributes), deduplicated, in first-appearance order.
    pub fn referenced_attributes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in self.select.iter().map(String::as_str) {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        for p in &self.predicates {
            let a = p.attribute.as_str();
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }
}

impl std::fmt::Display for Query {
    /// Renders text that [`crate::parse_query`] reads back as an equal
    /// query: identifiers are quoted when the bare grammar would split
    /// them, and `'` inside text literals is doubled.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let select: Vec<String> = self.select.iter().map(|a| quote_ident(a, true)).collect();
        write!(
            f,
            "SELECT {} FROM {}",
            select.join(", "),
            quote_ident(&self.from, true)
        )?;
        write_where(f, &self.predicates)
    }
}

/// An identifier as the parser reads it back: bare when every character
/// is a bare identifier character, otherwise `"`-quoted (`` ` ``-quoted if
/// the name itself contains `"`; a name with both quote characters has no
/// spelling the grammar reads back). Parentheses are bare identifier
/// characters only outside aggregate queries, where `count(x)` would read
/// as a call; `paren_ok` says which grammar applies.
pub(crate) fn quote_ident(name: &str, paren_ok: bool) -> String {
    let bare = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_alphanumeric() || "_$./#-".contains(c) || (paren_ok && "()".contains(c)));
    if bare {
        name.to_owned()
    } else if name.contains('"') {
        format!("`{name}`")
    } else {
        format!("\"{name}\"")
    }
}

/// Renders ` WHERE p1 AND p2 ...` (nothing for no predicates), with text
/// literals single-quoted and embedded quotes doubled.
pub(crate) fn write_where(
    f: &mut std::fmt::Formatter<'_>,
    predicates: &[Predicate],
) -> std::fmt::Result {
    for (i, p) in predicates.iter().enumerate() {
        let rhs = match &p.value {
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            v => v.to_string(),
        };
        let sep = if i == 0 { " WHERE" } else { " AND" };
        write!(
            f,
            "{sep} {} {} {rhs}",
            quote_ident(&p.attribute, true),
            p.op.symbol()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_op_numeric() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert!(CompareOp::Lt.eval(&a, &b));
        assert!(CompareOp::Le.eval(&a, &b));
        assert!(CompareOp::Ne.eval(&a, &b));
        assert!(!CompareOp::Gt.eval(&a, &b));
        assert!(!CompareOp::Ge.eval(&a, &b));
        assert!(!CompareOp::Eq.eval(&a, &b));
        assert!(CompareOp::Eq.eval(&a, &Value::Float(3.0)));
    }

    #[test]
    fn compare_op_null_is_never_satisfied() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
            CompareOp::Like,
        ] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)), "{op:?}");
            assert!(!op.eval(&Value::Int(1), &Value::Null), "{op:?}");
        }
    }

    #[test]
    fn like_operator_delegates_to_pattern_matching() {
        let txt = Value::text("Data Integration");
        assert!(CompareOp::Like.eval(&txt, &Value::text("%integr%")));
        assert!(!CompareOp::Like.eval(&txt, &Value::text("integr")));
    }

    #[test]
    fn referenced_attributes_dedupes_in_order() {
        let q = Query::new(
            ["name", "phone"],
            vec![
                Predicate::new("phone", CompareOp::Eq, "x"),
                Predicate::new("city", CompareOp::Eq, "y"),
            ],
        );
        assert_eq!(q.referenced_attributes(), vec!["name", "phone", "city"]);
    }

    #[test]
    fn display_round_trip_shape() {
        let q = Query::new(
            ["name"],
            vec![Predicate::new("year", CompareOp::Ge, 1990_i64)],
        );
        assert_eq!(q.to_string(), "SELECT name FROM T WHERE year >= 1990");
    }

    #[test]
    fn display_quotes_messy_identifiers_and_escapes_literals() {
        let q = Query::new(
            ["home phone", "author(s)", "say \"hi\""],
            vec![Predicate::new("last name", CompareOp::Eq, "O'Brien")],
        );
        assert_eq!(
            q.to_string(),
            "SELECT \"home phone\", author(s), `say \"hi\"` FROM T \
             WHERE \"last name\" = 'O''Brien'"
        );
        assert_eq!(crate::parse_query(&q.to_string()).unwrap(), q);
    }
}
