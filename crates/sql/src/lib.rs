//! # squall-sql
//!
//! The declarative interface (§2): "Similarly to Hive which provides an
//! SQL interface on top of Hadoop, Squall's declarative interface offers
//! running SQL over Storm." The parser covers the fragment Squall's demo
//! and evaluation queries use:
//!
//! ```sql
//! SELECT <expr | COUNT(*) | SUM(expr) | AVG(expr)> [AS name], ...
//! FROM table [AS] alias, ...
//! [WHERE conjunction of comparisons over arithmetic expressions]
//! [GROUP BY column, ...]
//! ```
//!
//! `parse` yields a [`squall_plan::Query`] logical block; planning and
//! execution are `squall-plan`'s job.
//!
//! ```
//! let q = squall_sql::parse(
//!     "SELECT W1.FromUrl, COUNT(*) \
//!      FROM WebGraph AS W1, WebGraph AS W2, WebGraph AS W3 \
//!      WHERE W1.ToUrl = W2.FromUrl AND W2.ToUrl = W3.FromUrl \
//!      GROUP BY W1.FromUrl",
//! ).unwrap();
//! assert_eq!(q.tables.len(), 3);
//! assert_eq!(q.filters.len(), 2);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
mod lexer;
mod parser;

pub use lexer::{tokenize, Token};
pub use parser::{parse, parse_statement, Statement};
