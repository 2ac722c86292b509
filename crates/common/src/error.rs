//! The workspace-wide structured error type.
//!
//! Every fallible public operation in the bdbms crates returns
//! [`Result<T>`](Result), so callers handle one error type across the
//! storage engine, the access methods, and the query engine.
//!
//! A [`BdbmsError`] is a *structured* error: a machine-readable
//! [`ErrorCode`] (so clients can branch on syntax vs. authorization vs.
//! constraint failures programmatically), a human-readable message, and —
//! for errors raised while lexing or parsing a statement — an optional
//! [`Span`] pointing at the offending bytes of the SQL text.

use std::fmt;

/// Convenient alias used across the workspace.
pub type Result<T> = std::result::Result<T, BdbmsError>;

/// Byte range into the source SQL text of a statement-level error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending region.
    pub start: usize,
    /// One past the last byte of the offending region.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Machine-readable category of every error bdbms surfaces.  Clients
/// branch on this (retry? reauthenticate? fix the statement?) instead of
/// string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// A SQL / A-SQL statement failed to lex or parse.  Carries a
    /// [`Span`] into the statement text whenever one is known.
    Syntax,
    /// A statement referenced a table, column, annotation table, user,
    /// procedure, or rule that does not exist.
    NotFound,
    /// An object with the same name already exists.
    AlreadyExists,
    /// A value's type does not match the column or operation it is used
    /// with (INSERT of TEXT into an INT column, and the like).
    TypeMismatch,
    /// The statement is well-formed but violates a semantic rule
    /// (arity mismatch, invalid granularity, ...).
    Invalid,
    /// The current user lacks the privilege for the attempted operation
    /// (identity-based GRANT/REVOKE check — §6 of the paper).
    Unauthorized,
    /// A content-based approval constraint rejected the operation
    /// (content-based authorization — §6 of the paper).
    Approval,
    /// A dependency-rule operation failed (cycle detected, conflicting
    /// rules, unknown procedure — §5 of the paper).
    Dependency,
    /// The storage layer failed (page overflow, bad record id, I/O error).
    Storage,
    /// Persisted state failed validation: a bad magic number, a checksum
    /// mismatch on a header page or WAL frame outside the torn tail, or a
    /// snapshot that does not decode.  Unlike [`ErrorCode::Storage`] this
    /// means the *bytes on disk* are wrong, not that an operation was
    /// invalid.
    Corrupt,
    /// An expression failed to evaluate at runtime.
    Eval,
    /// Underlying filesystem error, stringified to keep the type `Clone`.
    Io,
    /// A prepared statement was bound with the wrong number of
    /// parameters, or executed with a parameter slot left unbound.
    ParamMismatch,
    /// A transaction-control statement was issued in the wrong state:
    /// `BEGIN` inside an open transaction, `COMMIT`/`ROLLBACK` outside
    /// one, a savepoint command naming an unknown savepoint, or a
    /// non-transactional statement inside an explicit transaction.
    TxnState,
}

impl ErrorCode {
    /// Short machine-readable slug, handy in tests and logs.  Codes that
    /// predate the structured redesign keep their historical slugs.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Syntax => "parse",
            ErrorCode::NotFound => "not_found",
            ErrorCode::AlreadyExists => "already_exists",
            ErrorCode::TypeMismatch => "type_mismatch",
            ErrorCode::Invalid => "invalid",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::Approval => "approval",
            ErrorCode::Dependency => "dependency",
            ErrorCode::Storage => "storage",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Eval => "eval",
            ErrorCode::Io => "io",
            ErrorCode::ParamMismatch => "param_mismatch",
            ErrorCode::TxnState => "txn_state",
        }
    }

    /// Every code, for exhaustive tests.
    pub const ALL: [ErrorCode; 14] = [
        ErrorCode::Syntax,
        ErrorCode::NotFound,
        ErrorCode::AlreadyExists,
        ErrorCode::TypeMismatch,
        ErrorCode::Invalid,
        ErrorCode::Unauthorized,
        ErrorCode::Approval,
        ErrorCode::Dependency,
        ErrorCode::Storage,
        ErrorCode::Corrupt,
        ErrorCode::Eval,
        ErrorCode::Io,
        ErrorCode::ParamMismatch,
        ErrorCode::TxnState,
    ];
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// All error conditions surfaced by bdbms: a code, a message, and (for
/// statement-text errors) an optional span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BdbmsError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// Byte range into the offending SQL text, when known.
    pub span: Option<Span>,
}

// The durable and wire forms.  One byte per code: the generated `match`
// is exhaustive, so adding a code without giving it a byte is a compile
// error.
crate::codec_enum!(ErrorCode, "error code", {
    0 => Syntax,
    1 => NotFound,
    2 => AlreadyExists,
    3 => TypeMismatch,
    4 => Invalid,
    5 => Unauthorized,
    6 => Approval,
    7 => Dependency,
    8 => Storage,
    9 => Corrupt,
    10 => Eval,
    11 => Io,
    12 => ParamMismatch,
    13 => TxnState,
});
crate::codec_struct!(Span { start, end });
crate::codec_struct!(BdbmsError {
    code,
    message,
    span
});

impl BdbmsError {
    /// Construct an error with an explicit code.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        BdbmsError {
            code,
            message: message.into(),
            span: None,
        }
    }

    /// Attach a source span (builder style).
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// The machine-readable category.
    pub fn code(&self) -> ErrorCode {
        self.code
    }

    /// Short machine-readable category slug, handy in tests and logs.
    pub fn kind(&self) -> &'static str {
        self.code.as_str()
    }

    /// The human-readable message carried by the error.
    pub fn message(&self) -> &str {
        &self.message
    }

    // ---- constructors, one per code ----

    /// [`ErrorCode::Syntax`] without a span (lex/parse failures where no
    /// position is known).
    pub fn syntax(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Syntax, m)
    }

    /// [`ErrorCode::Syntax`] pointing at `start..end` of the SQL text.
    pub fn syntax_at(m: impl Into<String>, start: usize, end: usize) -> Self {
        Self::new(ErrorCode::Syntax, m).with_span(Span::new(start, end))
    }

    /// [`ErrorCode::NotFound`].
    pub fn not_found(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::NotFound, m)
    }

    /// [`ErrorCode::AlreadyExists`].
    pub fn already_exists(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::AlreadyExists, m)
    }

    /// [`ErrorCode::TypeMismatch`].
    pub fn type_mismatch(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::TypeMismatch, m)
    }

    /// [`ErrorCode::Invalid`].
    pub fn invalid(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Invalid, m)
    }

    /// [`ErrorCode::Unauthorized`].
    pub fn unauthorized(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Unauthorized, m)
    }

    /// [`ErrorCode::Approval`].
    pub fn approval(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Approval, m)
    }

    /// [`ErrorCode::Dependency`].
    pub fn dependency(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Dependency, m)
    }

    /// [`ErrorCode::Storage`].
    pub fn storage(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Storage, m)
    }

    /// [`ErrorCode::Corrupt`].
    pub fn corrupt(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Corrupt, m)
    }

    /// [`ErrorCode::Eval`].
    pub fn eval(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Eval, m)
    }

    /// [`ErrorCode::Io`].
    pub fn io(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::Io, m)
    }

    /// [`ErrorCode::ParamMismatch`].
    pub fn param_mismatch(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::ParamMismatch, m)
    }

    /// [`ErrorCode::TxnState`].
    pub fn txn_state(m: impl Into<String>) -> Self {
        Self::new(ErrorCode::TxnState, m)
    }
}

impl fmt::Display for BdbmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {span})")?;
        }
        Ok(())
    }
}

impl std::error::Error for BdbmsError {}

impl From<std::io::Error> for BdbmsError {
    fn from(e: std::io::Error) -> Self {
        BdbmsError::io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_message() {
        let e = BdbmsError::not_found("table Gene");
        assert_eq!(e.to_string(), "not_found: table Gene");
        assert_eq!(e.kind(), "not_found");
        assert_eq!(e.code(), ErrorCode::NotFound);
        assert_eq!(e.message(), "table Gene");
        assert_eq!(e.span, None);
    }

    #[test]
    fn spans_render_and_compare() {
        let e = BdbmsError::syntax_at("unexpected `?`", 7, 8);
        assert_eq!(e.code(), ErrorCode::Syntax);
        assert_eq!(e.span, Some(Span::new(7, 8)));
        assert_eq!(e.to_string(), "parse: unexpected `?` (at 7..8)");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk on fire");
        let e: BdbmsError = io.into();
        assert_eq!(e.code(), ErrorCode::Io);
        assert!(e.message().contains("disk on fire"));
    }

    #[test]
    fn kinds_are_distinct() {
        let mut kinds: Vec<_> = ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), ErrorCode::ALL.len());
    }
}
