//! The traced run's span file: `mpq-obs` span records written as one JSON
//! object per line, read back, and joined across the client/server
//! boundary by trace id. Every span-derived per-layer number is computed
//! from the parsed file, not from the in-memory records.

use mpq_obs::SpanRecord;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One span as read back from the file.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub fields: Vec<(String, u64)>,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    pub fn dur_ms(&self) -> f64 {
        self.dur_us() as f64 / 1e3
    }

    pub fn field(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One span as a JSON line (no trailing newline).
pub fn to_json_line(s: &SpanRecord) -> String {
    let mut out = String::new();
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    let _ = write!(
        out,
        r#"{{"id":{},"parent":{},"name":"{}","start_us":{},"end_us":{},"fields":{{"#,
        s.id, parent, s.name, s.start_us, s.end_us
    );
    for (i, (k, v)) in s.fields.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, r#"{sep}"{k}":{v}"#);
    }
    out.push_str("}}");
    out
}

/// Writes every span to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        text.push_str(&to_json_line(s));
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Reads a span file written by [`write_jsonl`].
pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// A cursor over one line of the span format: flat objects whose values
/// are unsigned integers, `null`, identifier strings, or (for `fields`)
/// an object of unsigned integers.
struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.i;
        while let Some(&b) = self.s.get(self.i) {
            match b {
                b'"' => {
                    self.i += 1;
                    return Ok(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned());
                }
                b'\\' => return Err("escapes are not part of the span format".into()),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("expected an unsigned integer at byte {start}"))
    }

    /// `{"key": <value>, ...}`, calling `value` for each key.
    fn object(
        &mut self,
        mut value: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            value(self, key)?;
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

fn parse_line(line: &str) -> Result<Span, String> {
    let mut c = Cursor {
        s: line.as_bytes(),
        i: 0,
    };
    let (mut id, mut parent, mut name, mut start, mut end) = (None, None, None, None, None);
    let mut fields = Vec::new();
    c.object(|c, key| {
        match key.as_str() {
            "id" => id = Some(u32::try_from(c.number()?).map_err(|e| e.to_string())?),
            "parent" => {
                if c.peek() == Some(b'n') {
                    if !c.s[c.i..].starts_with(b"null") {
                        return Err("expected null".into());
                    }
                    c.i += 4;
                } else {
                    parent = Some(u32::try_from(c.number()?).map_err(|e| e.to_string())?);
                }
            }
            "name" => name = Some(c.string()?),
            "start_us" => start = Some(c.number()?),
            "end_us" => end = Some(c.number()?),
            "fields" => c.object(|c, k| {
                fields.push((k, c.number()?));
                Ok(())
            })?,
            other => return Err(format!("unknown key {other}")),
        }
        Ok(())
    })?;
    Ok(Span {
        id: id.ok_or("missing id")?,
        parent,
        name: name.ok_or("missing name")?,
        start_us: start.ok_or("missing start_us")?,
        end_us: end.ok_or("missing end_us")?,
        fields,
    })
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// Children of each span id.
pub fn children(spans: &[Span]) -> HashMap<u32, Vec<&Span>> {
    let mut out: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            out.entry(p).or_default().push(s);
        }
    }
    out
}

/// Pairs client-side spans with the server-side span of the same request,
/// by the `trace` field both carry. Trace ids restart at 1 in every
/// router, so with several clients one id names several requests; among
/// the unpaired server spans with the client span's id, the join takes
/// the earliest-starting one that lies inside the client span's interval
/// (the server answered while the client waited). Returns index pairs
/// `(client, server)`; clients without such a server span stay unpaired.
pub fn join_by_trace(client: &[&Span], server: &[&Span]) -> Vec<(usize, usize)> {
    let mut by_trace: HashMap<u64, Vec<usize>> = HashMap::new();
    for (j, s) in server.iter().enumerate() {
        if let Some(t) = s.field("trace") {
            by_trace.entry(t).or_default().push(j);
        }
    }
    for list in by_trace.values_mut() {
        list.sort_by_key(|&j| server[j].start_us);
    }
    let mut order: Vec<usize> = (0..client.len()).collect();
    order.sort_by_key(|&i| client[i].start_us);
    let mut used = vec![false; server.len()];
    let mut pairs = Vec::new();
    for i in order {
        let c = client[i];
        let Some(list) = c.field("trace").and_then(|t| by_trace.get(&t)) else {
            continue;
        };
        let hit = list.iter().copied().find(|&j| {
            !used[j] && server[j].start_us >= c.start_us && server[j].end_us <= c.end_us
        });
        if let Some(j) = hit {
            used[j] = true;
            pairs.push((i, j));
        }
    }
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, trace: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name,
            start_us: start,
            end_us: end,
            fields: vec![("trace", trace), ("shard", 0)],
        }
    }

    #[test]
    fn span_lines_round_trip() {
        let mut rec = span(7, "server_request", 10, 25, 3);
        rec.parent = Some(2);
        let dir = std::env::temp_dir().join(format!("mpqbench-trace-{}", std::process::id()));
        let path = dir.join("spans.jsonl");
        let empty = SpanRecord {
            fields: Vec::new(),
            ..span(8, "optimize", 11, 20, 0)
        };
        write_jsonl(&path, &[rec, empty]).expect("write");
        let back = read_jsonl(&path).expect("read");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].parent, Some(2));
        assert_eq!(back[0].name, "server_request");
        assert_eq!(back[0].dur_us(), 15);
        assert_eq!(back[0].field("trace"), Some(3));
        assert_eq!(back[1].parent, None);
        assert!(back[1].fields.is_empty());
        assert!(parse_line(r#"{"id":1,"name":"x\"y"}"#).is_err());
        assert!(parse_line(r#"{"id":1}"#).is_err());
    }

    #[test]
    fn join_pairs_colliding_trace_ids_by_interval() {
        // Two routers both number their requests from 1. Client A sends
        // trace 1 at 0..100 and trace 2 at 100..200; client B sends trace
        // 1 at 50..180. The server saw A#1 at 10..90, B#1 at 95..170 and
        // A#2 at 120..190, plus a stray retry of trace 2 outside any
        // client interval.
        let parse = |r: SpanRecord| parse_line(&to_json_line(&r)).expect("parses");
        let client: Vec<Span> = vec![
            parse(span(0, "route_request", 0, 100, 1)),
            parse(span(1, "route_request", 100, 200, 2)),
            parse(span(2, "route_request", 50, 180, 1)),
        ];
        let server: Vec<Span> = vec![
            parse(span(3, "server_request", 95, 170, 1)),
            parse(span(4, "server_request", 10, 90, 1)),
            parse(span(5, "server_request", 120, 190, 2)),
            parse(span(6, "server_request", 300, 310, 2)),
        ];
        let c: Vec<&Span> = client.iter().collect();
        let s: Vec<&Span> = server.iter().collect();
        assert_eq!(join_by_trace(&c, &s), vec![(0, 1), (1, 2), (2, 0)]);
        // A client whose id never reached the server stays unpaired.
        let lone = parse(span(9, "route_request", 0, 5, 42));
        assert!(join_by_trace(&[&lone], &s).is_empty());
    }
}
