//! RFC-4180 CSV reading and writing, implemented from scratch.
//!
//! The reader handles quoted fields, embedded quotes (`""`), embedded commas
//! and newlines, and both LF and CRLF line endings. Empty fields and the
//! Adult dataset's `?` marker parse as [`Value::Missing`].

use crate::builder::TableBuilder;
use crate::error::{Error, Result};
use crate::schema::{Kind, Schema};
use crate::table::Table;
use crate::value::Value;
use std::io::{BufRead, BufWriter, Write};

/// Splits raw CSV text into records of fields.
///
/// Returns one `Vec<String>` per record. Blank trailing lines are ignored.
pub fn parse_records(input: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    // `started` distinguishes "no record in progress" from "record with one
    // empty field" so trailing newlines do not emit phantom records.
    let mut started = false;

    while let Some(c) = chars.next() {
        match c {
            '"' => {
                started = true;
                if !field.is_empty() {
                    return Err(Error::Csv {
                        line,
                        message: "quote inside unquoted field".into(),
                    });
                }
                // Quoted field: consume until the closing quote.
                let mut closed = false;
                while let Some(qc) = chars.next() {
                    match qc {
                        '"' => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                closed = true;
                                break;
                            }
                        }
                        '\n' => {
                            line += 1;
                            field.push('\n');
                        }
                        other => field.push(other),
                    }
                }
                if !closed {
                    return Err(Error::Csv {
                        line,
                        message: "unterminated quoted field".into(),
                    });
                }
                // Only a separator or end-of-record may follow a closing quote.
                match chars.peek() {
                    None | Some(',') | Some('\n') | Some('\r') => {}
                    Some(_) => {
                        return Err(Error::Csv {
                            line,
                            message: "data after closing quote".into(),
                        })
                    }
                }
            }
            ',' => {
                started = true;
                record.push(std::mem::take(&mut field));
            }
            '\r' => {
                // Only valid as part of CRLF.
                if chars.peek() == Some(&'\n') {
                    continue;
                }
                return Err(Error::Csv {
                    line,
                    message: "bare carriage return".into(),
                });
            }
            '\n' => {
                if started || !field.is_empty() {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                started = false;
                line += 1;
            }
            other => {
                started = true;
                field.push(other);
            }
        }
    }
    if started || !field.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Reads a table with a known schema from CSV text.
///
/// When `has_header` is true the first record must list the schema's
/// attribute names in order. Integer columns parse their fields as `i64`;
/// empty fields and `?` become missing in either kind of column.
pub fn read_table_str(input: &str, schema: Schema, has_header: bool) -> Result<Table> {
    let records = parse_records(input)?;
    let mut iter = records.into_iter().enumerate();
    if has_header {
        let (_, header) = iter.next().ok_or(Error::Csv {
            line: 1,
            message: "missing header".into(),
        })?;
        validate_header(&header, &schema)?;
    }
    let mut builder = TableBuilder::new(schema.clone());
    for (record_idx, record) in iter {
        builder.push_row(parse_record_values(&record, &schema, record_idx + 1)?)?;
    }
    Ok(builder.finish())
}

/// Checks a header record against the schema's attribute names in order.
fn validate_header(header: &[String], schema: &Schema) -> Result<()> {
    if header.len() != schema.len() {
        return Err(Error::ArityMismatch {
            expected: schema.len(),
            found: header.len(),
        });
    }
    for (attr, name) in schema.attributes().iter().zip(header) {
        if attr.name() != name.trim() {
            return Err(Error::Csv {
                line: 1,
                message: format!(
                    "header field `{}` does not match attribute `{}`",
                    name,
                    attr.name()
                ),
            });
        }
    }
    Ok(())
}

/// Converts one data record's raw fields into typed row values; `line` is the
/// 1-based record number reported on parse failures.
fn parse_record_values(record: &[String], schema: &Schema, line: usize) -> Result<Vec<Value>> {
    if record.len() != schema.len() {
        return Err(Error::ArityMismatch {
            expected: schema.len(),
            found: record.len(),
        });
    }
    let mut row = Vec::with_capacity(record.len());
    for (i, raw) in record.iter().enumerate() {
        let attr = schema.attribute(i);
        let trimmed = raw.trim();
        let value = if trimmed.is_empty() || trimmed == "?" {
            Value::Missing
        } else {
            match attr.kind() {
                Kind::Int => Value::Int(trimmed.parse::<i64>().map_err(|_| Error::Parse {
                    line,
                    attribute: attr.name().to_owned(),
                    text: raw.clone(),
                })?),
                Kind::Cat => Value::Text(trimmed.to_owned()),
            }
        };
        row.push(value);
    }
    Ok(row)
}

/// Reads a table from any buffered reader, streaming: semantically identical
/// to [`read_table_str`] on the reader's whole text — same records, same
/// values, same dictionaries, and an error exactly when the buffered reader
/// errors (the *variant* may differ when a file holds several errors: the
/// stream reports the first one in document order, while the buffered path
/// surfaces all CSV syntax errors before any value error).
///
/// It never holds the input text: the working set is one 64 KiB read
/// buffer, the record under construction, and the columnar table being
/// built. That keeps ingest memory at the size of the table itself however
/// large the file — the property the CI `ulimit` smoke pins down.
pub fn read_table<R: BufRead>(mut reader: R, schema: Schema, has_header: bool) -> Result<Table> {
    let mut splitter = StreamSplitter::new();
    let mut sink = RecordSink::new(schema, has_header);
    let mut buf = [0u8; 64 * 1024];
    // Up to 3 trailing bytes of a UTF-8 sequence split across reads.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let n = reader.read(&mut buf)?;
        if n == 0 {
            break;
        }
        if carry.is_empty() {
            feed_bytes(&buf[..n], &mut carry, &mut splitter, &mut sink)?;
        } else {
            let mut joined = std::mem::take(&mut carry);
            joined.extend_from_slice(&buf[..n]);
            feed_bytes(&joined, &mut carry, &mut splitter, &mut sink)?;
        }
    }
    if !carry.is_empty() {
        return Err(invalid_utf8());
    }
    if let Some(record) = splitter.finish()? {
        sink.consume(record)?;
    }
    sink.finish()
}

/// The error `BufRead::read_to_string` reports on malformed UTF-8, so the
/// streaming and buffered readers fail identically.
fn invalid_utf8() -> Error {
    Error::from(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// Decodes `bytes` as UTF-8 and feeds the characters through the splitter
/// into the sink. A trailing incomplete sequence is stashed in `carry`; an
/// invalid sequence is an error.
fn feed_bytes(
    bytes: &[u8],
    carry: &mut Vec<u8>,
    splitter: &mut StreamSplitter,
    sink: &mut RecordSink,
) -> Result<()> {
    let text = match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => {
            if e.error_len().is_some() {
                return Err(invalid_utf8());
            }
            let (valid, rest) = bytes.split_at(e.valid_up_to());
            *carry = rest.to_vec();
            std::str::from_utf8(valid).expect("valid_up_to prefix is UTF-8")
        }
    };
    for c in text.chars() {
        if let Some(record) = splitter.feed(c)? {
            sink.consume(record)?;
        }
    }
    Ok(())
}

/// Where the incremental splitter is within the CSV grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitState {
    /// In an unquoted field (possibly empty, possibly at record start).
    Unquoted,
    /// Inside a quoted field.
    InQuotes,
    /// Inside a quoted field, one `"` seen: either the start of an escaped
    /// `""` or the field's closing quote.
    QuoteSeen,
    /// A `\r` seen outside quotes: only `\n` may follow.
    CrSeen,
}

/// Incremental record splitter — the streaming twin of [`parse_records`].
///
/// Feeding a document character by character yields exactly the records (and
/// exactly the errors, with the same line numbers) `parse_records` produces
/// on the whole text; the `csv_streaming` proptest suite pins this.
struct StreamSplitter {
    state: SplitState,
    field: String,
    record: Vec<String>,
    line: usize,
    /// Distinguishes "no record in progress" from "record with one empty
    /// field" so trailing newlines do not emit phantom records.
    started: bool,
}

impl StreamSplitter {
    fn new() -> StreamSplitter {
        StreamSplitter {
            state: SplitState::Unquoted,
            field: String::new(),
            record: Vec::new(),
            line: 1,
            started: false,
        }
    }

    fn err(&self, message: &str) -> Error {
        Error::Csv {
            line: self.line,
            message: message.into(),
        }
    }

    /// Ends the current record (on a newline or at end of input).
    fn end_record(&mut self) -> Option<Vec<String>> {
        if self.started || !self.field.is_empty() {
            self.record.push(std::mem::take(&mut self.field));
            self.started = false;
            Some(std::mem::take(&mut self.record))
        } else {
            None
        }
    }

    /// Consumes one character; returns a record when one just completed.
    fn feed(&mut self, c: char) -> Result<Option<Vec<String>>> {
        match self.state {
            SplitState::Unquoted => match c {
                '"' => {
                    self.started = true;
                    if !self.field.is_empty() {
                        return Err(self.err("quote inside unquoted field"));
                    }
                    self.state = SplitState::InQuotes;
                }
                ',' => {
                    self.started = true;
                    self.record.push(std::mem::take(&mut self.field));
                }
                '\r' => self.state = SplitState::CrSeen,
                '\n' => {
                    let record = self.end_record();
                    self.line += 1;
                    return Ok(record);
                }
                other => {
                    self.started = true;
                    self.field.push(other);
                }
            },
            SplitState::InQuotes => match c {
                '"' => self.state = SplitState::QuoteSeen,
                '\n' => {
                    self.line += 1;
                    self.field.push('\n');
                }
                other => self.field.push(other),
            },
            // The quote seen was either the first half of an escaped `""` or
            // the closing quote; only a separator may follow a closing quote.
            SplitState::QuoteSeen => match c {
                '"' => {
                    self.field.push('"');
                    self.state = SplitState::InQuotes;
                }
                ',' => {
                    self.record.push(std::mem::take(&mut self.field));
                    self.state = SplitState::Unquoted;
                }
                '\n' => {
                    self.state = SplitState::Unquoted;
                    let record = self.end_record();
                    self.line += 1;
                    return Ok(record);
                }
                '\r' => self.state = SplitState::CrSeen,
                _ => return Err(self.err("data after closing quote")),
            },
            SplitState::CrSeen => match c {
                '\n' => {
                    self.state = SplitState::Unquoted;
                    let record = self.end_record();
                    self.line += 1;
                    return Ok(record);
                }
                _ => return Err(self.err("bare carriage return")),
            },
        }
        Ok(None)
    }

    /// Signals end of input; returns the final unterminated record, if any.
    fn finish(&mut self) -> Result<Option<Vec<String>>> {
        match self.state {
            SplitState::InQuotes => Err(self.err("unterminated quoted field")),
            SplitState::CrSeen => Err(self.err("bare carriage return")),
            // A quote followed by end of input closed its field cleanly.
            SplitState::Unquoted | SplitState::QuoteSeen => Ok(self.end_record()),
        }
    }
}

/// Turns a stream of records into a table: validates the header and parses
/// rows into a [`TableBuilder`].
struct RecordSink {
    schema: Schema,
    has_header: bool,
    builder: TableBuilder,
    record_idx: usize,
}

impl RecordSink {
    fn new(schema: Schema, has_header: bool) -> RecordSink {
        RecordSink {
            builder: TableBuilder::new(schema.clone()),
            schema,
            has_header,
            record_idx: 0,
        }
    }

    fn consume(&mut self, record: Vec<String>) -> Result<()> {
        let record_idx = self.record_idx;
        self.record_idx += 1;
        if record_idx == 0 && self.has_header {
            return validate_header(&record, &self.schema);
        }
        self.builder
            .push_row(parse_record_values(&record, &self.schema, record_idx + 1)?)
    }

    fn finish(self) -> Result<Table> {
        if self.has_header && self.record_idx == 0 {
            return Err(Error::Csv {
                line: 1,
                message: "missing header".into(),
            });
        }
        Ok(self.builder.finish())
    }
}

/// Reads a table with an *inferred* schema from headered CSV text.
///
/// Column kinds are inferred from the data: a column whose every present
/// field parses as `i64` becomes [`Kind::Int`], anything else [`Kind::Cat`].
/// All attributes get [`Role::Other`] — assign roles afterwards (e.g. via a
/// spec file) before running privacy checks.
pub fn read_table_infer(input: &str) -> Result<Table> {
    use crate::schema::{Attribute, Role};

    let records = parse_records(input)?;
    let mut iter = records.iter();
    let header = iter.next().ok_or(Error::Csv {
        line: 1,
        message: "missing header".into(),
    })?;
    let n_cols = header.len();
    let mut is_int = vec![true; n_cols];
    let mut any_present = vec![false; n_cols];
    for record in records.iter().skip(1) {
        if record.len() != n_cols {
            return Err(Error::ArityMismatch {
                expected: n_cols,
                found: record.len(),
            });
        }
        for (i, raw) in record.iter().enumerate() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed == "?" {
                continue;
            }
            any_present[i] = true;
            if trimmed.parse::<i64>().is_err() {
                is_int[i] = false;
            }
        }
    }
    let attributes: Vec<Attribute> = header
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // Columns with no present value at all default to categorical.
            let kind = if is_int[i] && any_present[i] {
                Kind::Int
            } else {
                Kind::Cat
            };
            Attribute::new(name.trim(), kind, Role::Other)
        })
        .collect();
    read_table_str(input, Schema::new(attributes)?, true)
}

fn needs_quoting(field: &str) -> bool {
    field.chars().any(|c| matches!(c, ',' | '"' | '\n' | '\r'))
}

fn write_field<W: Write>(out: &mut W, field: &str) -> std::io::Result<()> {
    if needs_quoting(field) {
        out.write_all(b"\"")?;
        for c in field.chars() {
            if c == '"' {
                out.write_all(b"\"\"")?;
            } else {
                let mut buf = [0u8; 4];
                out.write_all(c.encode_utf8(&mut buf).as_bytes())?;
            }
        }
        out.write_all(b"\"")
    } else {
        out.write_all(field.as_bytes())
    }
}

/// Writes a table as CSV; missing cells become empty fields.
///
/// Output goes through an internal [`BufWriter`], so an unbuffered `out`
/// (a bare `File`) sees a few large writes rather than one per field.
pub fn write_table<W: Write>(out: &mut W, table: &Table, with_header: bool) -> Result<()> {
    let mut out = BufWriter::new(out);
    let out = &mut out;
    if with_header {
        for (i, attr) in table.schema().attributes().iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write_field(out, attr.name())?;
        }
        out.write_all(b"\n")?;
    }
    let single_column = table.schema().len() == 1;
    for row in 0..table.n_rows() {
        for col in 0..table.schema().len() {
            if col > 0 {
                out.write_all(b",")?;
            }
            let value = table.value(row, col);
            let rendered = value.render();
            // A single empty field would serialize to a blank line, which
            // readers (ours included) skip as no record at all; quote it so
            // the row survives the round trip.
            if single_column && rendered.is_empty() {
                out.write_all(b"\"\"")?;
            } else {
                write_field(out, &rendered)?;
            }
        }
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

/// Renders a table to a CSV string; see [`write_table`].
pub fn to_csv_string(table: &Table, with_header: bool) -> String {
    let mut buf = Vec::new();
    write_table(&mut buf, table, with_header).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::int_key("Age"),
            Attribute::cat_key("City"),
            Attribute::cat_confidential("Illness"),
        ])
        .unwrap()
    }

    #[test]
    fn parse_simple_records() {
        let records = parse_records("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(records, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parse_quoted_fields() {
        let records =
            parse_records("\"hello, world\",\"say \"\"hi\"\"\",\"multi\nline\"\n").unwrap();
        assert_eq!(
            records,
            vec![vec!["hello, world", "say \"hi\"", "multi\nline"]]
        );
    }

    #[test]
    fn parse_crlf_and_no_trailing_newline() {
        let records = parse_records("a,b\r\nc,d").unwrap();
        assert_eq!(records, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn parse_empty_fields() {
        let records = parse_records(",\na,\n,b\n").unwrap();
        assert_eq!(records, vec![vec!["", ""], vec!["a", ""], vec!["", "b"]]);
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            parse_records("\"unterminated"),
            Err(Error::Csv { .. })
        ));
        assert!(matches!(parse_records("\"x\"y,z"), Err(Error::Csv { .. })));
        assert!(matches!(parse_records("a\rb"), Err(Error::Csv { .. })));
        assert!(matches!(parse_records("ab\"cd"), Err(Error::Csv { .. })));
    }

    #[test]
    fn read_with_header() {
        let input = "Age,City,Illness\n50,Newport,Colon Cancer\n?,Dayton,\n";
        let t = read_table_str(input, schema(), true).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(0, 0), Value::Int(50));
        assert_eq!(t.value(1, 0), Value::Missing);
        assert_eq!(t.value(1, 2), Value::Missing);
    }

    #[test]
    fn header_mismatch_rejected() {
        let input = "Age,Town,Illness\n50,Newport,X\n";
        assert!(matches!(
            read_table_str(input, schema(), true),
            Err(Error::Csv { .. })
        ));
    }

    #[test]
    fn bad_int_reports_line() {
        let input = "Age,City,Illness\n50,Newport,X\nold,Dayton,Y\n";
        match read_table_str(input, schema(), true) {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_with_quoting_and_missing() {
        let input = "Age,City,Illness\n50,\"Newport, KY\",\"He said \"\"no\"\"\"\n,Dayton,HIV\n";
        let t = read_table_str(input, schema(), true).unwrap();
        let written = to_csv_string(&t, true);
        let t2 = read_table_str(&written, schema(), true).unwrap();
        assert_eq!(t, t2);
        assert!(written.contains("\"Newport, KY\""));
    }

    #[test]
    fn single_column_missing_rows_roundtrip() {
        // Regression: a lone empty field must not serialize to a blank line.
        let schema = Schema::new(vec![Attribute::cat_key("Only")]).unwrap();
        let t = read_table_str("Only\n\"\"\nx\n\"\"\n", schema.clone(), true).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(0, 0), Value::Missing);
        let written = to_csv_string(&t, true);
        let back = read_table_str(&written, schema, true).unwrap();
        assert_eq!(back, t);
        assert!(written.contains("\"\"\n"));
    }

    #[test]
    fn arity_mismatch_detected() {
        let input = "50,Newport\n";
        assert!(matches!(
            read_table_str(input, schema(), false),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn infer_schema_kinds() {
        let input = "Age,City,Note\n50,Newport,ok\n?,Dayton,\n30,Cold Spring,7\n";
        let t = read_table_infer(input).unwrap();
        assert_eq!(t.schema().attribute(0).kind(), crate::Kind::Int);
        assert_eq!(t.schema().attribute(1).kind(), crate::Kind::Cat);
        // "Note" mixes text and numbers: categorical.
        assert_eq!(t.schema().attribute(2).kind(), crate::Kind::Cat);
        assert_eq!(t.value(1, 0), Value::Missing);
        assert_eq!(t.value(2, 2), Value::Text("7".into()));
        // All roles default to Other.
        assert!(t.schema().key_indices().is_empty());
    }

    #[test]
    fn infer_all_missing_column_is_categorical() {
        let input = "A,B\n?,1\n,2\n";
        let t = read_table_infer(input).unwrap();
        assert_eq!(t.schema().attribute(0).kind(), crate::Kind::Cat);
        assert_eq!(t.schema().attribute(1).kind(), crate::Kind::Int);
    }

    #[test]
    fn infer_rejects_empty_input() {
        assert!(matches!(read_table_infer(""), Err(Error::Csv { .. })));
        assert!(matches!(
            read_table_infer("A,B\n1\n"),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn read_from_bufread() {
        let input = b"50,Newport,HIV\n" as &[u8];
        let t = read_table(input, schema(), false).unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn read_table_matches_buffered_reader() {
        let input = "Age,City,Illness\n50,\"Newport, KY\",\"multi\nline\"\n?,Dayton,\n30,\"say \"\"hi\"\"\",Flu\n";
        let buffered = read_table_str(input, schema(), true).unwrap();
        assert_eq!(
            read_table(input.as_bytes(), schema(), true).unwrap(),
            buffered
        );
    }

    #[test]
    fn read_table_without_header() {
        let t = read_table(&b"50,Newport,HIV\n20,Dayton,Flu\n"[..], schema(), false).unwrap();
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn read_table_errors_match_buffered_reader() {
        let bad_inputs = [
            "Age,City,Illness\n\"unterminated",
            "Age,City,Illness\n\"x\"y,a,b\n",
            "Age,City,Illness\na\rb,c,d\n",
            "Age,City,Illness\nab\"cd,e,f\n",
            "Age,Town,Illness\n50,Newport,X\n",
            "Age,City,Illness\nold,Dayton,Y\n",
            "Age,City\n50,Newport\n",
            "Age,City,Illness\n50,Newport\n",
            "",
        ];
        for input in bad_inputs {
            let buffered = read_table_str(input, schema(), true);
            let streamed = read_table(input.as_bytes(), schema(), true);
            assert!(buffered.is_err(), "buffered accepted {input:?}");
            assert!(streamed.is_err(), "streamed accepted {input:?}");
        }
    }

    #[test]
    fn read_table_reports_bad_int_record_number() {
        let input = "Age,City,Illness\n50,Newport,X\nold,Dayton,Y\n";
        match read_table(input.as_bytes(), schema(), true) {
            Err(Error::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_table_rejects_invalid_utf8() {
        let bytes: &[u8] = b"Age,City,Illness\n50,New\xffport,X\n";
        assert!(matches!(
            read_table(bytes, schema(), true),
            Err(Error::Io(_))
        ));
        // A sequence truncated by end of input is also invalid.
        let truncated: &[u8] = b"Age,City,Illness\n50,Newport,X\n\xe2\x82";
        assert!(matches!(
            read_table(truncated, schema(), true),
            Err(Error::Io(_))
        ));
    }

    #[test]
    fn read_table_handles_multibyte_split_across_reads() {
        // A 1-byte BufRead forces every multi-byte sequence to straddle a
        // read boundary, exercising the UTF-8 carry.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(1).min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        impl std::io::BufRead for OneByte<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Ok(self.0)
            }
            fn consume(&mut self, amt: usize) {
                self.0 = &self.0[amt..];
            }
        }
        let input = "Age,City,Illness\n50,Zürich,Grippe\n";
        assert_eq!(
            read_table(OneByte(input.as_bytes()), schema(), true).unwrap(),
            read_table_str(input, schema(), true).unwrap()
        );
    }

    #[test]
    fn write_table_buffers_its_writes() {
        /// Counts `write` calls, as a bare `File` would count syscalls.
        struct Counting {
            writes: usize,
            bytes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut builder = TableBuilder::new(schema());
        for i in 0..1000 {
            builder
                .push_row(vec![
                    Value::Int(i),
                    Value::Text(format!("City {}", i % 7)),
                    Value::Missing,
                ])
                .unwrap();
        }
        let table = builder.finish();
        let mut out = Counting {
            writes: 0,
            bytes: 0,
        };
        write_table(&mut out, &table, true).unwrap();
        assert_eq!(out.bytes, to_csv_string(&table, true).len());
        // 1 000 rows × 3 fields would be ~6 000 writes unbuffered.
        assert!(
            out.writes <= out.bytes / 8192 + 2,
            "{} writes for {} bytes",
            out.writes,
            out.bytes
        );
    }
}
