//! A small TOML-subset parser for scenario manifests.
//!
//! The build environment cannot fetch the `toml` crate, and the manifest
//! format is deliberately simple, so this module implements the slice of
//! TOML v1.0 the manifests use:
//!
//! * bare and quoted keys, `key = value` pairs;
//! * `[table]` and `[nested.table]` headers;
//! * `[[array-of-tables]]` headers;
//! * values: basic strings (with the common escapes), integers (decimal,
//!   optionally signed/underscored), floats, booleans, arrays, and inline
//!   tables `{ k = v, ... }`;
//! * `#` comments and arbitrary whitespace.
//!
//! Unsupported TOML (dates, multi-line/literal strings, dotted keys in
//! assignments) is rejected with a line-numbered error rather than
//! mis-parsed.
//!
//! Every value keeps the line it was written on, and [`Table`] reads a
//! parsed table key by key: a typed read that fails, a required key that
//! is missing and a key nothing read are all errors that name their line.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Item>),
    Table(Map),
}

/// A table's entries by key.
pub type Map = BTreeMap<String, Item>;

/// A value and the 1-based line it was written on (a table's: its header).
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    pub line: usize,
    pub value: Value,
}

impl std::ops::Deref for Item {
    type Target = Value;
    fn deref(&self) -> &Value {
        &self.value
    }
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Floats accept integer literals too (`loss = 0` means `0.0`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Item]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&Map> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Look up a key in a table value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table()?.get(key).map(|item| &item.value)
    }
}

/// A parse or read failure with a 1-based line number.
#[derive(Debug)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Join physical lines into logical lines: a `key = value` whose brackets
/// (outside strings) are unbalanced continues on the next line, so
/// multi-line arrays and inline tables parse. Returns `(line_no, text)`
/// pairs where `line_no` is the first physical line.
fn logical_lines(input: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String, i32)> = None;
    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let stripped = strip_comment(raw_line);
        let depth_delta = bracket_depth_delta(stripped);
        match pending.take() {
            None => {
                let trimmed = stripped.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if depth_delta > 0 {
                    pending = Some((line_no, stripped.to_string(), depth_delta));
                } else {
                    out.push((line_no, trimmed.to_string()));
                }
            }
            Some((start, mut acc, depth)) => {
                acc.push(' ');
                acc.push_str(stripped);
                let depth = depth + depth_delta;
                if depth > 0 {
                    pending = Some((start, acc, depth));
                } else {
                    out.push((start, acc.trim().to_string()));
                }
            }
        }
    }
    if let Some((start, acc, _)) = pending {
        // unbalanced at EOF: surface it to the parser for a proper error
        out.push((start, acc.trim().to_string()));
    }
    out
}

/// Net `[`/`{` depth change of a comment-stripped line, ignoring brackets
/// inside strings (escape-aware, so `\"` does not end a string). `[table]`
/// headers are self-balancing, so this is only ever positive for continued
/// values.
fn bracket_depth_delta(line: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Parse a complete document into its root table.
pub fn parse(input: &str) -> Result<Map, ParseError> {
    let mut root = Map::new();
    // Path of the table currently being filled ([] = root) and whether it
    // is an array-of-tables element.
    let mut current_path: Vec<String> = Vec::new();

    for (line_no, line) in logical_lines(input) {
        let line = line.as_str();
        if let Some(rest) = line.strip_prefix("[[") {
            let Some(path_str) = rest.strip_suffix("]]") else {
                return err(line_no, "unterminated [[table]] header");
            };
            let path = parse_path(path_str, line_no)?;
            if path.is_empty() {
                return err(line_no, "empty [[table]] header");
            }
            push_array_table(&mut root, &path, line_no)?;
            current_path = path;
        } else if let Some(rest) = line.strip_prefix('[') {
            let Some(path_str) = rest.strip_suffix(']') else {
                return err(line_no, "unterminated [table] header");
            };
            let path = parse_path(path_str, line_no)?;
            if path.is_empty() {
                return err(line_no, "empty [table] header");
            }
            ensure_table(&mut root, &path, line_no)?;
            current_path = path;
        } else {
            let Some(eq) = find_top_level_eq(line) else {
                return err(line_no, format!("expected `key = value`, got `{line}`"));
            };
            let key = parse_key(line[..eq].trim(), line_no)?;
            let mut rest = line[eq + 1..].trim();
            let value = parse_value(&mut rest, line_no)?;
            if !rest.trim().is_empty() {
                return err(line_no, format!("trailing content `{}`", rest.trim()));
            }
            let table = navigate(&mut root, &current_path, line_no)?;
            let item = Item {
                line: line_no,
                value,
            };
            if table.insert(key.clone(), item).is_some() {
                return err(line_no, format!("duplicate key `{key}`"));
            }
        }
    }
    Ok(root)
}

fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => {
                escaped = !escaped;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '=' => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_key(raw: &str, line_no: usize) -> Result<String, ParseError> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Ok(inner.to_string());
    }
    if raw.is_empty()
        || !raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return err(line_no, format!("invalid key `{raw}`"));
    }
    Ok(raw.to_string())
}

fn parse_path(raw: &str, line_no: usize) -> Result<Vec<String>, ParseError> {
    raw.split('.')
        .map(|part| parse_key(part, line_no))
        .collect()
}

/// Walk (and auto-create) intermediate tables; the last element of an
/// array-of-tables is entered, matching TOML semantics.
fn navigate<'a>(
    root: &'a mut Map,
    path: &[String],
    line_no: usize,
) -> Result<&'a mut Map, ParseError> {
    let mut current = root;
    for part in path {
        let entry = current.entry(part.clone()).or_insert_with(|| Item {
            line: line_no,
            value: Value::Table(Map::new()),
        });
        current = match &mut entry.value {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut().map(|item| &mut item.value) {
                Some(Value::Table(t)) => t,
                _ => return err(line_no, format!("`{part}` is not a table")),
            },
            _ => return err(line_no, format!("`{part}` is not a table")),
        };
    }
    Ok(current)
}

fn ensure_table(root: &mut Map, path: &[String], line_no: usize) -> Result<(), ParseError> {
    navigate(root, path, line_no).map(|_| ())
}

fn push_array_table(root: &mut Map, path: &[String], line_no: usize) -> Result<(), ParseError> {
    let Some((last, parents)) = path.split_last() else {
        return err(line_no, "empty table header");
    };
    let parent = navigate(root, parents, line_no)?;
    let entry = parent.entry(last.clone()).or_insert_with(|| Item {
        line: line_no,
        value: Value::Array(Vec::new()),
    });
    match &mut entry.value {
        Value::Array(items) => {
            items.push(Item {
                line: line_no,
                value: Value::Table(Map::new()),
            });
            Ok(())
        }
        _ => err(line_no, format!("`{last}` is not an array of tables")),
    }
}

/// Parse one value from the front of `rest`, consuming it.
fn parse_value(rest: &mut &str, line_no: usize) -> Result<Value, ParseError> {
    *rest = rest.trim_start();
    let Some(first) = rest.chars().next() else {
        return err(line_no, "missing value");
    };
    match first {
        '"' => parse_string(rest, line_no),
        '[' => parse_array(rest, line_no),
        '{' => parse_inline_table(rest, line_no),
        't' | 'f' => {
            if let Some(r) = rest.strip_prefix("true") {
                *rest = r;
                Ok(Value::Bool(true))
            } else if let Some(r) = rest.strip_prefix("false") {
                *rest = r;
                Ok(Value::Bool(false))
            } else {
                err(line_no, format!("unrecognised value `{rest}`"))
            }
        }
        c if c == '+' || c == '-' || c.is_ascii_digit() => parse_number(rest, line_no),
        _ => err(line_no, format!("unrecognised value `{rest}`")),
    }
}

fn parse_string(rest: &mut &str, line_no: usize) -> Result<Value, ParseError> {
    debug_assert!(rest.starts_with('"'));
    let mut out = String::new();
    let mut chars = rest[1..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *rest = &rest[1 + i + 1..];
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, other)) => return err(line_no, format!("unsupported escape `\\{other}`")),
                None => return err(line_no, "dangling escape"),
            },
            other => out.push(other),
        }
    }
    err(line_no, "unterminated string")
}

fn parse_number(rest: &mut &str, line_no: usize) -> Result<Value, ParseError> {
    let end = rest
        .char_indices()
        .find(|&(_, c)| !matches!(c, '0'..='9' | '+' | '-' | '.' | 'e' | 'E' | '_'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    let raw: String = rest[..end].chars().filter(|&c| c != '_').collect();
    *rest = &rest[end..];
    if raw.contains(['.', 'e', 'E']) {
        match raw.parse::<f64>() {
            Ok(f) => Ok(Value::Float(f)),
            Err(_) => err(line_no, format!("invalid float `{raw}`")),
        }
    } else {
        match raw.parse::<i64>() {
            Ok(i) => Ok(Value::Int(i)),
            Err(_) => err(line_no, format!("invalid integer `{raw}`")),
        }
    }
}

fn parse_array(rest: &mut &str, line_no: usize) -> Result<Value, ParseError> {
    debug_assert!(rest.starts_with('['));
    *rest = &rest[1..];
    let mut items = Vec::new();
    loop {
        *rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(']') {
            *rest = r;
            return Ok(Value::Array(items));
        }
        let value = parse_value(rest, line_no)?;
        items.push(Item {
            line: line_no,
            value,
        });
        *rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            *rest = r;
        } else if !rest.starts_with(']') {
            return err(line_no, "expected `,` or `]` in array");
        }
    }
}

fn parse_inline_table(rest: &mut &str, line_no: usize) -> Result<Value, ParseError> {
    debug_assert!(rest.starts_with('{'));
    *rest = &rest[1..];
    let mut table = Map::new();
    loop {
        *rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            *rest = r;
            return Ok(Value::Table(table));
        }
        let Some(eq) = find_top_level_eq(rest) else {
            return err(line_no, "expected `key = value` in inline table");
        };
        let key = parse_key(&rest[..eq], line_no)?;
        *rest = &rest[eq + 1..];
        let value = Item {
            line: line_no,
            value: parse_value(rest, line_no)?,
        };
        if table.insert(key.clone(), value).is_some() {
            return err(line_no, format!("duplicate key `{key}` in inline table"));
        }
        *rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            *rest = r;
        } else if !rest.starts_with('}') {
            return err(line_no, "expected `,` or `}` in inline table");
        }
    }
}

/// A type a [`Table`] can read a key as.
pub trait FromValue<'a>: Sized {
    /// What the key must hold, for error messages: "boolean", "array", …
    const WHAT: &'static str;
    /// The converted value, or the `WHAT` of the innermost part that is
    /// not one (an array of counts names the count, not the array).
    fn from_value(value: &'a Value) -> Result<Self, &'static str>;
}

macro_rules! from_value {
    ($($t:ty, $what:literal, $convert:expr;)*) => {$(
        impl<'a> FromValue<'a> for $t {
            const WHAT: &'static str = $what;
            fn from_value(value: &'a Value) -> Result<Self, &'static str> {
                ($convert)(value).ok_or(Self::WHAT)
            }
        }
    )*};
}

/// A count at its field's width: negative or overflowing integers fail.
fn count<T: TryFrom<i64>>(value: &Value) -> Option<T> {
    value.as_int().and_then(|i| T::try_from(i).ok())
}

from_value! {
    bool, "boolean", Value::as_bool;
    &'a str, "string", Value::as_str;
    String, "string", |v: &Value| v.as_str().map(str::to_string);
    f64, "number", Value::as_float;
    i64, "integer", Value::as_int;
    u64, "non-negative integer", count;
    usize, "non-negative integer", count;
    u32, "non-negative integer below 2^32", count;
}

impl<'a, T: FromValue<'a>> FromValue<'a> for Vec<T> {
    const WHAT: &'static str = "array";
    fn from_value(value: &'a Value) -> Result<Self, &'static str> {
        let items = value.as_array().ok_or(Self::WHAT)?;
        items.iter().map(|item| T::from_value(item)).collect()
    }
}

static EMPTY: Map = Map::new();

/// One table being read. Every read records its key and
/// [`finish`](Table::finish) rejects the first key nothing read, so a key
/// the table's `kind` does not read is an error, never a silent default.
/// Errors name the line of the offending value, or the table's header
/// line when a required key is missing.
pub struct Table<'a> {
    map: &'a Map,
    line: usize,
    /// Dotted path from the root (empty at the root, which is called
    /// `name`), and the 1-based entry of an array of tables (0 otherwise).
    path: String,
    index: usize,
    name: &'a str,
    /// The selectors read so far, e.g. `kind = "crash"`.
    in_force: String,
    /// Bit i is set once the i-th key in sorted order is read. No table
    /// reads 64 keys, so a key past the 64th is never marked: rejected.
    seen: u64,
}

impl<'a> Table<'a> {
    /// The document's root table, called `name` in errors.
    pub fn root(map: &'a Map, name: &'a str) -> Self {
        Table {
            map,
            line: 1,
            path: String::new(),
            index: 0,
            name,
            in_force: String::new(),
            seen: 0,
        }
    }

    fn context(&self) -> String {
        match self.index {
            _ if self.path.is_empty() => self.name.to_string(),
            0 => format!("[{}]", self.path),
            i => format!("[[{}]] #{i}", self.path),
        }
    }

    /// An error about `key`, at its line (the header's when it is absent).
    pub(crate) fn error(&self, key: &str, message: impl fmt::Display) -> ParseError {
        ParseError {
            line: self.map.get(key).map_or(self.line, |item| item.line),
            message: format!("{}: {message}", self.context()),
        }
    }

    /// Whether `key` is present; does not count as reading it.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    fn get(&mut self, key: &str) -> Option<&'a Item> {
        let (i, (_, item)) = self.map.iter().enumerate().find(|(_, (k, _))| *k == key)?;
        if i < 64 {
            self.seen |= 1 << i;
        }
        Some(item)
    }

    /// Read `key` as a `T`; `None` when absent.
    pub(crate) fn opt<T: FromValue<'a>>(&mut self, key: &str) -> Result<Option<T>, ParseError> {
        let Some(item) = self.get(key) else {
            return Ok(None);
        };
        T::from_value(item)
            .map(Some)
            .map_err(|what| self.error(key, format_args!("`{key}`: expected {what}")))
    }

    /// Read `key` as a `T`, or `default` when absent.
    pub fn or<T: FromValue<'a>>(&mut self, key: &str, default: T) -> Result<T, ParseError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Read `key` as a `T`; absent is an error at the table's header.
    pub fn req<T: FromValue<'a>>(&mut self, key: &str) -> Result<T, ParseError> {
        self.opt(key)?.ok_or_else(|| {
            let what = T::WHAT;
            self.error(
                key,
                format_args!("`{key}`: expected {what}, but the key is missing"),
            )
        })
    }

    /// Read the string that selects which other keys the table reads
    /// (`kind`, `action`, …); `finish` names it when it rejects a key.
    pub(crate) fn select(
        &mut self,
        key: &str,
        default: Option<&'a str>,
    ) -> Result<&'a str, ParseError> {
        let value = match default {
            Some(default) => self.or(key, default)?,
            None => self.req(key)?,
        };
        let sep = if self.in_force.is_empty() { "" } else { ", " };
        let _ = write!(self.in_force, "{sep}{key} = \"{value}\"");
        Ok(value)
    }

    /// Read `key` as a sub-table; an absent key reads as an empty table.
    pub fn sub(&mut self, key: &str) -> Result<Table<'a>, ParseError> {
        let item = self.get(key);
        self.child(key, item, 0)
    }

    /// Read `key` as an array of tables (`[[key]]`); empty when absent.
    pub(crate) fn array(&mut self, key: &str) -> Result<Vec<Table<'a>>, ParseError> {
        let Some(item) = self.get(key) else {
            return Ok(Vec::new());
        };
        let items = item
            .as_array()
            .ok_or_else(|| self.error(key, format_args!("`{key}`: expected array of tables")))?;
        (1..)
            .zip(items)
            .map(|(i, item)| self.child(key, Some(item), i))
            .collect()
    }

    fn child(
        &self,
        key: &str,
        item: Option<&'a Item>,
        index: usize,
    ) -> Result<Table<'a>, ParseError> {
        let (map, line) = match item {
            None => (&EMPTY, self.line),
            Some(Item {
                line,
                value: Value::Table(map),
            }) => (map, *line),
            Some(item) => {
                let message = format!("{}: `{key}`: expected table", self.context());
                return err(item.line, message);
            }
        };
        let path = match self.path.as_str() {
            "" => key.to_string(),
            parent => format!("{parent}.{key}"),
        };
        Ok(Table {
            map,
            line,
            path,
            index,
            ..Table::root(map, self.name)
        })
    }

    /// Reject the first key no read asked for.
    pub fn finish(self) -> Result<(), ParseError> {
        let unread =
            (self.map.keys().enumerate()).find(|&(i, _)| i >= 64 || self.seen & (1 << i) == 0);
        let Some((_, key)) = unread else {
            return Ok(());
        };
        Err(match self.in_force.as_str() {
            "" => self.error(key, format_args!("unknown key `{key}`")),
            selectors => self.error(key, format_args!("unknown key `{key}` for {selectors}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# a manifest-shaped document
schema = 1
name = "demo"           # trailing comment
ratio = 0.75
big = 1_000
neg = -3
ok = true

[sim]
seed = 42
loss = 0.1

[nested.deep]
key = "value"

[[faults]]
at = 100
kind = "crash"

[[faults]]
at = 200
kind = "restart"

[assertions]
range = [1, 2, 3]
mixed = { a = 1, b = "two" }
"#;
        let root = parse(doc).expect("parses");
        assert_eq!(root["schema"].as_int(), Some(1));
        assert_eq!(root["name"].as_str(), Some("demo"));
        assert_eq!(root["ratio"].as_float(), Some(0.75));
        assert_eq!(root["big"].as_int(), Some(1000));
        assert_eq!(root["neg"].as_int(), Some(-3));
        assert_eq!(root["ok"].as_bool(), Some(true));
        assert_eq!(root["sim"].get("seed").and_then(Value::as_int), Some(42));
        assert_eq!(
            root["nested"]
                .get("deep")
                .and_then(|d| d.get("key"))
                .and_then(Value::as_str),
            Some("value")
        );
        let faults = root["faults"].as_array().expect("array of tables");
        assert_eq!(faults.len(), 2);
        assert_eq!(
            faults[1].get("kind").and_then(Value::as_str),
            Some("restart")
        );
        let range = root["assertions"].get("range").unwrap().as_array().unwrap();
        assert_eq!(range.len(), 3);
        assert_eq!(
            root["assertions"]
                .get("mixed")
                .and_then(|m| m.get("b"))
                .and_then(Value::as_str),
            Some("two")
        );
    }

    #[test]
    fn string_escapes_and_hash_inside_strings() {
        let root = parse(r#"s = "a # not comment \n\"q\"""#).unwrap();
        assert_eq!(root["s"].as_str(), Some("a # not comment \n\"q\""));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = true\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("x = ").is_err());
        assert!(parse("[unclosed").is_err());
        assert!(parse("a = 1\na = 2").is_err());
        assert!(parse("d = 1979-05-27").is_err(), "dates are unsupported");
    }

    #[test]
    fn escaped_quotes_do_not_confuse_brackets_or_assignment() {
        // an escaped quote must not end the string: the `[x]` and `=` inside
        // stay inside, and the next line is NOT glued onto this one
        let root = parse("description = \"say \\\"hi\\\" [x] a=b\"\nafter = 2\n").unwrap();
        assert_eq!(root["description"].as_str(), Some("say \"hi\" [x] a=b"));
        assert_eq!(root["after"].as_int(), Some(2));
    }

    #[test]
    fn multi_line_arrays_join_into_logical_lines() {
        let root =
            parse("digests = [\n    \"aa\", # per-seed\n    \"bb\"\n]\nafter = 1\n").unwrap();
        let digests = root["digests"].as_array().unwrap();
        assert_eq!(digests.len(), 2);
        assert_eq!(digests[1].as_str(), Some("bb"));
        assert_eq!(root["after"].as_int(), Some(1));
        // unbalanced bracket at EOF is an error, not a hang
        assert!(parse("x = [1, 2").is_err());
    }

    #[test]
    fn int_float_coercion_is_one_way() {
        let root = parse("i = 3\nf = 3.0").unwrap();
        assert_eq!(root["i"].as_float(), Some(3.0));
        assert_eq!(root["f"].as_int(), None);
    }
}
