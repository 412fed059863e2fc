//! A small push-style JSON writer: the one place the workspace's reports
//! (lint, fault coverage, perf trajectories) are turned into JSON text.
//!
//! Values are pushed in document order; the writer tracks nesting, places
//! separators and escapes strings. Layout is fixed so reports are
//! byte-stable across runs: containers that are array elements print on
//! one line (`{"a": 1, "b": 2}`), every other container puts one member per
//! line with two-space indentation. Floats print with a caller-chosen
//! number of decimals.
//!
//! ```
//! use hls_ir::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name").string("fir");
//! w.key("rows").begin_array();
//! w.begin_object().key("x").uint(1).end_object();
//! w.end_array();
//! w.end_object();
//! assert_eq!(w.finish(), "{\n  \"name\": \"fir\",\n  \"rows\": [\n    {\"x\": 1}\n  ]\n}\n");
//! ```

use std::fmt::Write as _;

/// An open object or array.
struct Frame {
    close: char,
    inline: bool,
    empty: bool,
}

/// Builds one JSON document (see the module docs for the layout).
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    stack: Vec<Frame>,
    after_key: bool,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{', '}')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[', ']')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Starts an object member; the next pushed value is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.escaped(key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// A string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.escaped(s);
        self
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// A `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// A float printed with `decimals` digits after the point. JSON has no
    /// infinities or NaN: `+inf` clamps to `f64::MAX`, everything else
    /// non-finite to `f64::MIN`.
    pub fn float(&mut self, v: f64, decimals: usize) -> &mut Self {
        self.separate();
        let v = match v {
            v if v.is_finite() => v,
            v if v > 0.0 => f64::MAX,
            _ => f64::MIN,
        };
        let _ = write!(self.out, "{v:.decimals$}");
        self
    }

    /// The finished document, newline-terminated.
    ///
    /// # Panics
    /// Panics if an object or array is still open.
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out.push('\n');
        self.out
    }

    fn open(&mut self, open: char, close: char) -> &mut Self {
        self.separate();
        let inline = self
            .stack
            .last()
            .is_some_and(|f| f.inline || f.close == ']');
        self.out.push(open);
        self.stack.push(Frame {
            close,
            inline,
            empty: true,
        });
        self
    }

    fn close(&mut self, close: char) -> &mut Self {
        let frame = self.stack.pop().expect("close without a matching open");
        assert_eq!(frame.close, close, "mismatched JSON container");
        if !frame.empty && !frame.inline {
            self.newline();
        }
        self.out.push(close);
        self
    }

    /// Writes what goes before a key or value: nothing right after a key,
    /// otherwise the comma and line break or space of the enclosing
    /// container.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(frame) = self.stack.last_mut() else {
            return;
        };
        let first = std::mem::replace(&mut frame.empty, false);
        let inline = frame.inline;
        if !first {
            self.out.push(',');
        }
        if !inline {
            self.newline();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_layout() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a").uint(1);
        w.key("b").begin_object();
        w.key("c").bool(true);
        w.key("d").null();
        w.end_object();
        w.key("rows").begin_array();
        w.begin_object().key("x").uint(2).key("y").begin_array();
        w.uint(3).uint(4).end_array().end_object();
        w.begin_array().end_array();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": true,\n    \"d\": null\n  },\n  \
             \"rows\": [\n    {\"x\": 2, \"y\": [3, 4]},\n    []\n  ]\n}\n"
        );
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("list").begin_array().end_array();
        w.key("map").begin_object().end_object();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"list\": [],\n  \"map\": {}\n}\n");
        let mut w = JsonWriter::new();
        w.begin_array().end_array();
        assert_eq!(w.finish(), "[]\n");
    }

    #[test]
    fn every_control_character_is_escaped() {
        let all: String = (0u8..0x20).map(char::from).collect();
        let mut w = JsonWriter::new();
        w.string(&format!("\"\\{all}é"));
        assert_eq!(
            w.finish(),
            concat!(
                r#""\"\\\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007"#,
                r#"\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012"#,
                r#"\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b"#,
                r#"\u001c\u001d\u001e\u001fé""#,
                "\n"
            )
        );
    }

    #[test]
    fn keys_are_escaped_too() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a\"b").uint(0).end_object();
        assert_eq!(w.finish(), "{\n  \"a\\\"b\": 0\n}\n");
    }

    #[test]
    fn floats_round_and_clamp_non_finite() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(1600.0, 3).float(-2.26, 1).float(0.1234567, 6);
        w.float(f64::INFINITY, 0)
            .float(f64::NEG_INFINITY, 0)
            .float(f64::NAN, 0);
        w.end_array();
        let max = format!("{:.0}", f64::MAX);
        let min = format!("{:.0}", f64::MIN);
        assert_eq!(
            w.finish(),
            format!("[\n  1600.000,\n  -2.3,\n  0.123457,\n  {max},\n  {min},\n  {min}\n]\n")
        );
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_rejects_an_open_container() {
        let mut w = JsonWriter::new();
        w.begin_object();
        let _ = w.finish();
    }
}
