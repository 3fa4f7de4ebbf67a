//! A trace as a recording keeps it: the JSON Lines a loaded recording
//! carries, or the records a live tracer held when it was recorded.
//!
//! The text form is what a recording on disk is made of. The records
//! form is what [`Tracer::snapshot`](super::Tracer::snapshot) takes: the
//! main ring's `Record`s copied at their length and the name table they
//! index, about 56 bytes an event where the text is about 240. Every
//! reader sees the same lines from both, because the records form writes
//! each event through
//! [`TraceEvent::write_json`](super::TraceEvent::write_json), the one
//! JSON writer.

use std::borrow::Cow;
use std::sync::Arc;

use super::codec::JSONL_LINE_BYTES;
use super::record::Record;

/// `len` records as JSON Lines, written into a buffer sized for the
/// longest lines, then returned at its exact length.
pub(super) fn jsonl<'r>(
    records: impl IntoIterator<Item = &'r Record>,
    len: usize,
    names: &[Arc<str>],
) -> String {
    let mut out = String::with_capacity(len * JSONL_LINE_BYTES);
    write_jsonl(records, names, &mut out);
    out.shrink_to_fit();
    out
}

/// Appends each of `records` as one JSON line, oldest first, its names
/// read from `names`.
fn write_jsonl<'r>(
    records: impl IntoIterator<Item = &'r Record>,
    names: &[Arc<str>],
    out: &mut String,
) {
    for record in records {
        record.event(names).write_json(out);
        out.push('\n');
    }
}

/// A recorded trace, in either form; both read as the same JSON Lines.
#[derive(Debug, Clone)]
pub struct Trace(Form);

#[derive(Debug, Clone)]
enum Form {
    Text(String),
    Records {
        records: Vec<Record>,
        names: Vec<Arc<str>>,
    },
}

impl From<String> for Trace {
    /// The trace whose JSON Lines are `text`, byte for byte.
    fn from(text: String) -> Trace {
        Trace(Form::Text(text))
    }
}

impl Trace {
    /// The records form: `records` with the table their ids index.
    pub(super) fn records(records: Vec<Record>, names: Vec<Arc<str>>) -> Trace {
        Trace(Form::Records { records, names })
    }

    /// Bytes [`write_jsonl`](Trace::write_jsonl) appends: exact for the
    /// text form, an upper guess for the records form, so that a buffer
    /// reserved for it is grown once and trimmed after.
    pub fn jsonl_len_hint(&self) -> usize {
        match &self.0 {
            Form::Text(text) => text.len(),
            Form::Records { records, .. } => records.len() * JSONL_LINE_BYTES,
        }
    }

    /// Appends the trace's JSON Lines to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        match &self.0 {
            Form::Text(text) => out.push_str(text),
            Form::Records { records, names } => write_jsonl(records, names, out),
        }
    }

    /// The trace's JSON Lines: lent by the text form, rendered at their
    /// exact length by the records form.
    pub fn text(&self) -> Cow<'_, str> {
        match &self.0 {
            Form::Text(text) => Cow::Borrowed(text),
            Form::Records { records, names } => Cow::Owned(jsonl(records, records.len(), names)),
        }
    }

    /// A cursor over the trace's lines, each with its newline: the text
    /// form's cut where they stand, the records form's rendered one at a
    /// time into a buffer the cursor reuses.
    pub fn lines(&self) -> Lines<'_> {
        Lines(match &self.0 {
            Form::Text(text) => LinesForm::Text(text),
            Form::Records { records, names } => LinesForm::Records {
                records: records.iter(),
                names,
                line: String::with_capacity(JSONL_LINE_BYTES),
            },
        })
    }
}

/// The line visitor of a [`Trace`]: see [`Trace::lines`].
#[derive(Debug)]
pub struct Lines<'t>(LinesForm<'t>);

#[derive(Debug)]
enum LinesForm<'t> {
    Text(&'t str),
    Records {
        records: std::slice::Iter<'t, Record>,
        names: &'t [Arc<str>],
        line: String,
    },
}

impl Lines<'_> {
    /// The next line, its newline included (a text form's last line may
    /// lack one), or `None` past the end.
    pub fn next_line(&mut self) -> Option<&str> {
        match &mut self.0 {
            LinesForm::Text(rest) => {
                if rest.is_empty() {
                    return None;
                }
                let end = rest.find('\n').map_or(rest.len(), |at| at + 1);
                let (line, after) = rest.split_at(end);
                *rest = after;
                Some(line)
            }
            LinesForm::Records {
                records,
                names,
                line,
            } => {
                let record = records.next()?;
                line.clear();
                write_jsonl([record], names, line);
                Some(line)
            }
        }
    }
}
