//! Totality and equivalence of the streaming CSV reader: `read_table` must
//! never panic on arbitrary bytes, must error exactly when the buffered
//! reader `read_table_str` errors, and on success must produce the same
//! table — even when every byte arrives in its own read (splitting quoted
//! newlines, escaped quotes, and multi-byte UTF-8 sequences across read
//! boundaries).

use proptest::prelude::*;
use psens::microdata::csv::{read_table, read_table_str};
use psens::prelude::*;
use std::io::{BufRead, Cursor, Read};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::int_key("Age"),
        Attribute::cat_key("City"),
        Attribute::cat_confidential("Illness"),
    ])
    .unwrap()
}

/// Feeds the stream one byte per `read` call, so every quoted newline,
/// escaped quote, and multi-byte UTF-8 sequence crosses a read boundary.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.data.len() && !buf.is_empty() {
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        } else {
            Ok(0)
        }
    }
}

impl BufRead for TrickleReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = (self.pos + 1).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The oracle: stream and buffered reader agree on `input` — an error on
/// both sides, or equal tables (dictionaries included) on both, whether the
/// bytes arrive in bulk or one at a time.
fn assert_stream_matches_buffered(input: &str, has_header: bool) -> Result<(), TestCaseError> {
    let buffered = read_table_str(input, schema(), has_header);
    let bulk = read_table(Cursor::new(input.as_bytes()), schema(), has_header);
    let trickled = read_table(
        TrickleReader {
            data: input.as_bytes(),
            pos: 0,
        },
        schema(),
        has_header,
    );
    match buffered {
        Ok(table) => {
            let bulk = bulk.map_err(|e| {
                TestCaseError::fail(format!("stream errored where buffered parsed: {e}"))
            })?;
            prop_assert_eq!(bulk, table.clone(), "bulk stream diverged");
            let trickled = trickled.map_err(|e| {
                TestCaseError::fail(format!("trickle stream errored where buffered parsed: {e}"))
            })?;
            prop_assert_eq!(trickled, table, "trickle stream diverged");
        }
        Err(_) => {
            prop_assert!(bulk.is_err(), "stream parsed where buffered errored");
            prop_assert!(trickled.is_err(), "trickle parsed where buffered errored");
        }
    }
    Ok(())
}

/// A CSV field rich in the grammar's special cases: plain tokens, quoted
/// fields holding commas, quotes, CR/LF, and multi-byte UTF-8, plus the
/// missing markers `?` and the empty field.
const CAT_FIELD: &str = "([a-c]{0,4}|\"[a-b\\\",éλ\n\r]{0,6}\"|\\?|)";

/// A (mostly) parseable integer field, `?`, or empty.
const INT_FIELD: &str = "(-?[0-9]{1,4}|\\?|)";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Totality + agreement on arbitrary bytes: whatever the input —
    /// malformed UTF-8, unbalanced quotes, ragged records — the streaming
    /// reader never panics and errors exactly when the buffered reader
    /// would.
    #[test]
    fn stream_and_buffered_agree_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        has_header in any::<bool>(),
    ) {
        let buffered = match std::str::from_utf8(&bytes) {
            Ok(text) => read_table_str(text, schema(), has_header),
            // Invalid UTF-8: the buffered path fails in read_to_string.
            Err(_) => Err(psens::microdata::Error::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            ))),
        };
        let streamed = read_table(Cursor::new(&bytes[..]), schema(), has_header);
        let trickled = read_table(TrickleReader { data: &bytes, pos: 0 }, schema(), has_header);
        prop_assert_eq!(streamed.is_ok(), buffered.is_ok());
        prop_assert_eq!(trickled.is_ok(), buffered.is_ok());
        if let (Ok(stream), Ok(trickle), Ok(table)) = (streamed, trickled, buffered) {
            prop_assert_eq!(&stream, &table);
            prop_assert_eq!(trickle, table);
        }
    }

    /// Structured CSV built from special-case-rich fields: quoted newlines
    /// and escaped quotes inside records, missing markers, signed integers
    /// — the streamed table must equal the buffered one exactly.
    #[test]
    fn stream_equals_buffered_on_generated_csv(
        rows in prop::collection::vec((INT_FIELD, CAT_FIELD, CAT_FIELD), 0..30),
        has_header in any::<bool>(),
    ) {
        let mut text = String::new();
        if has_header {
            text.push_str("Age,City,Illness\n");
        }
        for (age, city, illness) in &rows {
            text.push_str(&format!("{age},{city},{illness}\n"));
        }
        assert_stream_matches_buffered(&text, has_header)?;
    }
}

#[test]
fn quoted_newlines_span_read_boundaries() {
    // The quoted fields carry the record separator itself; the trickle
    // reader splits every one of them across reads.
    let text = "Age,City,Illness\n\
                30,\"New\nport\",\"Fl\r\nu\"\n\
                40,\"Day,ton\",\"says \"\"hi\"\"\"\n\
                50,Euclid,HIV\n";
    assert_stream_matches_buffered(text, true).unwrap();
    let table = read_table(Cursor::new(text.as_bytes()), schema(), true).unwrap();
    assert_eq!(table.n_rows(), 3);
    assert_eq!(table.value(0, 1), Value::Text("New\nport".into()));
    assert_eq!(table.value(1, 2), Value::Text("says \"hi\"".into()));
}

#[test]
fn ragged_trailing_record_agrees_with_buffered() {
    // A final record with too few fields: both readers must reject it, and
    // one with too many likewise.
    for text in [
        "1,a,b\n2,c\n",
        "1,a,b\n2\n",
        "1,a,b\n2,c,d,e\n",
        "1,a,b\n2,c,", // unterminated final record, short one field
    ] {
        assert_stream_matches_buffered(text, false).unwrap();
    }
    // An unterminated but complete final record parses on both sides.
    assert_stream_matches_buffered("1,a,b\n2,c,d", false).unwrap();
}

#[test]
fn empty_input_yields_empty_table() {
    let table = read_table(Cursor::new(&b""[..]), schema(), false).unwrap();
    assert_eq!(table, Table::empty(schema()));
}
