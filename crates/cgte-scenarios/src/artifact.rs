//! Run-directory artifacts: per-job CSV + JSON series dumps and the run
//! manifest that makes `--resume` possible.
//!
//! Layout under `--out DIR`:
//!
//! ```text
//! DIR/manifest.json      # scenario name, fingerprint, completed job ids
//! DIR/jobs/<job>.json    # full job output (reloadable)
//! DIR/jobs/<job>.csv     # the same series as CSV, for humans/plots
//! ```
//!
//! The manifest records a fingerprint of (scenario source, scale, seed);
//! resuming against a run directory written by a different scenario or at
//! different parameters is rejected rather than silently mixed.
//!
//! Serialization is a hand-rolled JSON subset (the build environment has
//! no serde): objects, arrays, strings, and numbers, with non-finite
//! floats encoded as the strings `"NaN"`, `"inf"`, `"-inf"` so that NRMSE
//! series round-trip exactly.

use crate::runner::{ExperimentOutput, GraphInfo, JobOutput, NamedSeries, ReportSection};
use crate::{EngineError, RunOptions};
use cgte_eval::{EstimatorKind, Table, Target};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (we only read what we wrote).

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// null
    Null,
    /// true/false
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> Result<&str, EngineError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(EngineError::msg(format!("expected string, got {other:?}"))),
        }
    }

    fn arr(&self) -> Result<&[Json], EngineError> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(EngineError::msg(format!("expected array, got {other:?}"))),
        }
    }

    /// A float, honoring the non-finite string encodings.
    fn f64(&self) -> Result<f64, EngineError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                other => Err(EngineError::msg(format!("expected number, got {other:?}"))),
            },
            other => Err(EngineError::msg(format!("expected number, got {other:?}"))),
        }
    }

    fn usize(&self) -> Result<usize, EngineError> {
        let x = self.f64()?;
        if x.fract() != 0.0 || x < 0.0 {
            return Err(EngineError::msg(format!("expected integer, got {x}")));
        }
        Ok(x as usize)
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a hostile
/// document (a serve request body) overflow the stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses a JSON document nested at most [`MAX_JSON_DEPTH`] deep.
pub fn parse_json(text: &str) -> Result<Json, EngineError> {
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0;
    let v = json_value(&chars, &mut pos, MAX_JSON_DEPTH)?;
    json_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(EngineError::msg("trailing characters after JSON value"));
    }
    Ok(v)
}

fn json_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

/// Parses one value; `depth` is how many more arrays/objects may open.
fn json_value(b: &[char], pos: &mut usize, depth: usize) -> Result<Json, EngineError> {
    json_ws(b, pos);
    match b.get(*pos) {
        Some('{' | '[') if depth == 0 => Err(EngineError::msg(format!(
            "JSON nested deeper than {MAX_JSON_DEPTH} levels"
        ))),
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            loop {
                json_ws(b, pos);
                if b.get(*pos) == Some(&'}') {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                if !fields.is_empty() {
                    if b.get(*pos) != Some(&',') {
                        return Err(EngineError::msg("expected ',' or '}' in object"));
                    }
                    *pos += 1;
                    json_ws(b, pos);
                }
                let Json::Str(key) = json_value(b, pos, depth - 1)? else {
                    return Err(EngineError::msg("object key must be a string"));
                };
                json_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(EngineError::msg("expected ':' after object key"));
                }
                *pos += 1;
                fields.push((key, json_value(b, pos, depth - 1)?));
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                json_ws(b, pos);
                if b.get(*pos) == Some(&']') {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    if b.get(*pos) != Some(&',') {
                        return Err(EngineError::msg("expected ',' or ']' in array"));
                    }
                    *pos += 1;
                }
                items.push(json_value(b, pos, depth - 1)?);
            }
        }
        Some('"') => {
            *pos += 1;
            let mut out = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    '"' => return Ok(Json::Str(out)),
                    '\\' => {
                        let Some(&e) = b.get(*pos) else {
                            return Err(EngineError::msg("unterminated escape"));
                        };
                        *pos += 1;
                        out.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            '"' => '"',
                            '\\' => '\\',
                            '/' => '/',
                            'u' => {
                                let hex: String = b
                                    .get(*pos..*pos + 4)
                                    .ok_or_else(|| EngineError::msg("short \\u escape"))?
                                    .iter()
                                    .collect();
                                *pos += 4;
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| EngineError::msg("bad \\u escape"))?;
                                char::from_u32(code)
                                    .ok_or_else(|| EngineError::msg("bad \\u code point"))?
                            }
                            other => {
                                return Err(EngineError::msg(format!("unknown escape \\{other}")))
                            }
                        });
                    }
                    other => out.push(other),
                }
            }
            Err(EngineError::msg("unterminated string"))
        }
        Some(&c) if c == 't' || c == 'f' || c == 'n' => {
            for (word, val) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                let end = *pos + word.len();
                if b.len() >= end && b[*pos..end].iter().collect::<String>() == word {
                    *pos = end;
                    return Ok(val);
                }
            }
            Err(EngineError::msg("invalid JSON literal"))
        }
        Some(&c) if c.is_ascii_digit() || c == '-' => {
            let start = *pos;
            while *pos < b.len()
                && (b[*pos].is_ascii_digit() || matches!(b[*pos], '-' | '+' | '.' | 'e' | 'E'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| EngineError::msg(format!("invalid number {text:?}: {e}")))
        }
        other => Err(EngineError::msg(format!(
            "unexpected character {other:?} in JSON"
        ))),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a float with exact round-tripping (shortest representation),
/// encoding non-finite values as strings.
fn json_f64(x: f64) -> String {
    if x.is_nan() {
        "\"NaN\"".into()
    } else if x == f64::INFINITY {
        "\"inf\"".into()
    } else if x == f64::NEG_INFINITY {
        "\"-inf\"".into()
    } else {
        format!("{x:?}")
    }
}

// ---------------------------------------------------------------------------
// JobOutput <-> JSON

fn target_str(t: Target) -> String {
    match t {
        Target::Size(c) => format!("size:{c}"),
        Target::Weight(a, b) => format!("weight:{a}-{b}"),
    }
}

fn parse_target(s: &str) -> Result<Target, EngineError> {
    let (kind, arg) = s
        .split_once(':')
        .ok_or_else(|| EngineError::msg(format!("bad target {s:?}")))?;
    match kind {
        "size" => {
            Ok(Target::Size(arg.parse().map_err(|_| {
                EngineError::msg(format!("bad target {s:?}"))
            })?))
        }
        "weight" => {
            let (a, b) = arg
                .split_once('-')
                .ok_or_else(|| EngineError::msg(format!("bad target {s:?}")))?;
            Ok(Target::Weight(
                a.parse()
                    .map_err(|_| EngineError::msg(format!("bad target {s:?}")))?,
                b.parse()
                    .map_err(|_| EngineError::msg(format!("bad target {s:?}")))?,
            ))
        }
        _ => Err(EngineError::msg(format!("bad target {s:?}"))),
    }
}

fn kind_str(k: EstimatorKind) -> &'static str {
    k.name()
}

fn parse_kind(s: &str) -> Result<EstimatorKind, EngineError> {
    cgte_eval::ALL_ESTIMATORS
        .iter()
        .copied()
        .find(|k| k.name() == s)
        .ok_or_else(|| EngineError::msg(format!("unknown estimator kind {s:?}")))
}

fn floats_json(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|&x| json_f64(x)).collect();
    format!("[{}]", items.join(","))
}

/// Serializes a job output to JSON.
pub fn output_to_json(out: &JobOutput) -> String {
    match out {
        JobOutput::None => "{\"type\":\"none\"}".into(),
        JobOutput::Experiment(e) => {
            let sizes: Vec<String> = e.sizes.iter().map(|s| s.to_string()).collect();
            let entries: Vec<String> = e
                .entries
                .iter()
                .map(|(k, t, truth, series)| {
                    format!(
                        "{{\"kind\":\"{}\",\"target\":\"{}\",\"truth\":{},\"series\":{}}}",
                        kind_str(*k),
                        target_str(*t),
                        json_f64(*truth),
                        floats_json(series)
                    )
                })
                .collect();
            format!(
                "{{\"type\":\"experiment\",\"sizes\":[{}],\"graph\":{{\"nodes\":{},\"edges\":{},\"mean_degree\":{},\"num_categories\":{}}},\"entries\":[{}]}}",
                sizes.join(","),
                e.graph.nodes,
                e.graph.edges,
                json_f64(e.graph.mean_degree),
                e.graph.num_categories,
                entries.join(",")
            )
        }
        JobOutput::Columns(cols) => {
            let items: Vec<String> = cols
                .iter()
                .map(|c| {
                    format!(
                        "{{\"label\":\"{}\",\"values\":{}}}",
                        json_escape(&c.label),
                        floats_json(&c.values)
                    )
                })
                .collect();
            format!("{{\"type\":\"columns\",\"cols\":[{}]}}", items.join(","))
        }
        JobOutput::Sections(sections) => {
            let items: Vec<String> = sections
                .iter()
                .map(|s| match s {
                    ReportSection::Table {
                        name,
                        heading,
                        table,
                    } => {
                        let headers: Vec<String> = table
                            .headers()
                            .iter()
                            .map(|h| format!("\"{}\"", json_escape(h)))
                            .collect();
                        let rows: Vec<String> = table
                            .rows()
                            .iter()
                            .map(|r| {
                                let cells: Vec<String> =
                                    r.iter().map(|c| format!("\"{}\"", json_escape(c))).collect();
                                format!("[{}]", cells.join(","))
                            })
                            .collect();
                        format!(
                            "{{\"kind\":\"table\",\"name\":\"{}\",\"heading\":\"{}\",\"headers\":[{}],\"rows\":[{}]}}",
                            json_escape(name),
                            json_escape(heading),
                            headers.join(","),
                            rows.join(",")
                        )
                    }
                    ReportSection::Text(t) => {
                        format!("{{\"kind\":\"text\",\"text\":\"{}\"}}", json_escape(t))
                    }
                    ReportSection::File { name, ext, content } => format!(
                        "{{\"kind\":\"file\",\"name\":\"{}\",\"ext\":\"{}\",\"content\":\"{}\"}}",
                        json_escape(name),
                        json_escape(ext),
                        json_escape(content)
                    ),
                    ReportSection::Values(vals) => {
                        let items: Vec<String> = vals
                            .iter()
                            .map(|(k, v)| {
                                format!("[\"{}\",\"{}\"]", json_escape(k), json_escape(v))
                            })
                            .collect();
                        format!("{{\"kind\":\"values\",\"values\":[{}]}}", items.join(","))
                    }
                })
                .collect();
            format!(
                "{{\"type\":\"sections\",\"sections\":[{}]}}",
                items.join(",")
            )
        }
    }
}

/// Deserializes a job output from JSON.
pub fn output_from_json(text: &str) -> Result<JobOutput, EngineError> {
    let v = parse_json(text)?;
    let ty = v
        .get("type")
        .ok_or_else(|| EngineError::msg("artifact JSON has no type"))?
        .str()?;
    match ty {
        "none" => Ok(JobOutput::None),
        "experiment" => {
            let sizes = v
                .get("sizes")
                .ok_or_else(|| EngineError::msg("missing sizes"))?
                .arr()?
                .iter()
                .map(Json::usize)
                .collect::<Result<Vec<_>, _>>()?;
            let g = v
                .get("graph")
                .ok_or_else(|| EngineError::msg("missing graph info"))?;
            let graph = GraphInfo {
                nodes: g
                    .get("nodes")
                    .ok_or_else(|| EngineError::msg("missing nodes"))?
                    .usize()?,
                edges: g
                    .get("edges")
                    .ok_or_else(|| EngineError::msg("missing edges"))?
                    .usize()?,
                mean_degree: g
                    .get("mean_degree")
                    .ok_or_else(|| EngineError::msg("missing mean_degree"))?
                    .f64()?,
                num_categories: g
                    .get("num_categories")
                    .ok_or_else(|| EngineError::msg("missing num_categories"))?
                    .usize()?,
            };
            let entries = v
                .get("entries")
                .ok_or_else(|| EngineError::msg("missing entries"))?
                .arr()?
                .iter()
                .map(|e| {
                    let kind = parse_kind(
                        e.get("kind")
                            .ok_or_else(|| EngineError::msg("missing kind"))?
                            .str()?,
                    )?;
                    let target = parse_target(
                        e.get("target")
                            .ok_or_else(|| EngineError::msg("missing target"))?
                            .str()?,
                    )?;
                    let truth = e
                        .get("truth")
                        .ok_or_else(|| EngineError::msg("missing truth"))?
                        .f64()?;
                    let series = e
                        .get("series")
                        .ok_or_else(|| EngineError::msg("missing series"))?
                        .arr()?
                        .iter()
                        .map(Json::f64)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok((kind, target, truth, series))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(JobOutput::Experiment(ExperimentOutput {
                sizes,
                entries,
                graph,
            }))
        }
        "columns" => {
            let cols = v
                .get("cols")
                .ok_or_else(|| EngineError::msg("missing cols"))?
                .arr()?
                .iter()
                .map(|c| {
                    Ok(NamedSeries {
                        label: c
                            .get("label")
                            .ok_or_else(|| EngineError::msg("missing label"))?
                            .str()?
                            .to_string(),
                        values: c
                            .get("values")
                            .ok_or_else(|| EngineError::msg("missing values"))?
                            .arr()?
                            .iter()
                            .map(Json::f64)
                            .collect::<Result<Vec<_>, _>>()?,
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(JobOutput::Columns(cols))
        }
        "sections" => {
            let sections = v
                .get("sections")
                .ok_or_else(|| EngineError::msg("missing sections"))?
                .arr()?
                .iter()
                .map(|s| {
                    let kind = s
                        .get("kind")
                        .ok_or_else(|| EngineError::msg("missing section kind"))?
                        .str()?;
                    Ok(match kind {
                        "table" => {
                            let headers: Vec<String> = s
                                .get("headers")
                                .ok_or_else(|| EngineError::msg("missing headers"))?
                                .arr()?
                                .iter()
                                .map(|h| h.str().map(String::from))
                                .collect::<Result<_, _>>()?;
                            let mut table = Table::new(headers);
                            for r in s
                                .get("rows")
                                .ok_or_else(|| EngineError::msg("missing rows"))?
                                .arr()?
                            {
                                let row: Vec<String> = r
                                    .arr()?
                                    .iter()
                                    .map(|c| c.str().map(String::from))
                                    .collect::<Result<_, _>>()?;
                                table.row(row);
                            }
                            ReportSection::Table {
                                name: s
                                    .get("name")
                                    .ok_or_else(|| EngineError::msg("missing name"))?
                                    .str()?
                                    .to_string(),
                                heading: s
                                    .get("heading")
                                    .ok_or_else(|| EngineError::msg("missing heading"))?
                                    .str()?
                                    .to_string(),
                                table,
                            }
                        }
                        "text" => ReportSection::Text(
                            s.get("text")
                                .ok_or_else(|| EngineError::msg("missing text"))?
                                .str()?
                                .to_string(),
                        ),
                        "file" => ReportSection::File {
                            name: s
                                .get("name")
                                .ok_or_else(|| EngineError::msg("missing name"))?
                                .str()?
                                .to_string(),
                            ext: s
                                .get("ext")
                                .ok_or_else(|| EngineError::msg("missing ext"))?
                                .str()?
                                .to_string(),
                            content: s
                                .get("content")
                                .ok_or_else(|| EngineError::msg("missing content"))?
                                .str()?
                                .to_string(),
                        },
                        "values" => ReportSection::Values(
                            s.get("values")
                                .ok_or_else(|| EngineError::msg("missing values"))?
                                .arr()?
                                .iter()
                                .map(|pair| {
                                    let p = pair.arr()?;
                                    if p.len() != 2 {
                                        return Err(EngineError::msg(
                                            "values pair must have 2 items",
                                        ));
                                    }
                                    Ok((p[0].str()?.to_string(), p[1].str()?.to_string()))
                                })
                                .collect::<Result<Vec<_>, EngineError>>()?,
                        ),
                        other => {
                            return Err(EngineError::msg(format!("unknown section kind {other:?}")))
                        }
                    })
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            Ok(JobOutput::Sections(sections))
        }
        other => Err(EngineError::msg(format!("unknown output type {other:?}"))),
    }
}

/// Renders a job output as CSV (the human-readable artifact twin).
pub fn output_to_csv(out: &JobOutput) -> String {
    let mut s = String::new();
    match out {
        JobOutput::None => {}
        JobOutput::Experiment(e) => {
            s.push_str("size");
            for (k, t, _, _) in &e.entries {
                let _ = write!(s, ",{}|{}", kind_str(*k), target_str(*t));
            }
            s.push('\n');
            for (i, size) in e.sizes.iter().enumerate() {
                let _ = write!(s, "{size}");
                for (_, _, _, series) in &e.entries {
                    let _ = write!(s, ",{}", series[i]);
                }
                s.push('\n');
            }
        }
        JobOutput::Columns(cols) => {
            let labels: Vec<&str> = cols.iter().map(|c| c.label.as_str()).collect();
            s.push_str(&labels.join(","));
            s.push('\n');
            let rows = cols.iter().map(|c| c.values.len()).max().unwrap_or(0);
            for i in 0..rows {
                let cells: Vec<String> = cols
                    .iter()
                    .map(|c| c.values.get(i).map(|v| v.to_string()).unwrap_or_default())
                    .collect();
                s.push_str(&cells.join(","));
                s.push('\n');
            }
        }
        JobOutput::Sections(sections) => {
            for sec in sections {
                if let ReportSection::Table { heading, table, .. } = sec {
                    let _ = writeln!(s, "# {heading}");
                    let mut buf = Vec::new();
                    if table.write_csv(&mut buf).is_ok() {
                        s.push_str(&String::from_utf8_lossy(&buf));
                    }
                }
            }
        }
    }
    s
}

// ---------------------------------------------------------------------------
// Run directory + manifest

/// FNV-1a over arbitrary bytes; the primitive behind both fingerprints.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the scenario source + options, for manifest compatibility
/// checks.
pub fn fingerprint(source: &str, opts: &RunOptions) -> String {
    let seed_bytes;
    let mut chunks: Vec<&[u8]> = vec![source.as_bytes(), opts.scale.name().as_bytes()];
    if let Some(s) = opts.seed {
        seed_bytes = s.to_le_bytes();
        chunks.push(&seed_bytes);
    }
    format!("{:016x}", fnv1a(&chunks))
}

/// Content fingerprint of one job artifact, recorded in the manifest so
/// `--resume` detects truncated or corrupted artifacts and re-executes
/// exactly those jobs.
pub fn artifact_fingerprint(content: &str) -> String {
    format!("{:016x}", fnv1a(&[content.as_bytes()]))
}

/// A run directory with its manifest. `done` maps completed job ids to
/// their artifact content fingerprints (`None` for manifests written
/// before per-job fingerprints existed).
pub struct RunDir {
    jobs_dir: PathBuf,
    manifest_path: PathBuf,
    scenario: String,
    fingerprint: String,
    done: BTreeMap<String, Option<String>>,
}

fn sanitize(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl RunDir {
    /// Opens (or creates) a run directory for a scenario. With
    /// `opts.resume`, an existing manifest is validated and its completed
    /// set loaded; without it, any previous manifest is discarded.
    pub fn open(
        dir: &Path,
        scenario: &str,
        source: &str,
        opts: &RunOptions,
    ) -> Result<RunDir, EngineError> {
        let jobs_dir = dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)
            .map_err(|e| EngineError::msg(format!("cannot create {jobs_dir:?}: {e}")))?;
        let manifest_path = dir.join("manifest.json");
        let fp = fingerprint(source, opts);
        let mut rd = RunDir {
            jobs_dir,
            manifest_path,
            scenario: scenario.to_string(),
            fingerprint: fp.clone(),
            done: BTreeMap::new(),
        };
        if opts.resume && rd.manifest_path.exists() {
            let text = std::fs::read_to_string(&rd.manifest_path)
                .map_err(|e| EngineError::msg(format!("cannot read manifest: {e}")))?;
            let v = parse_json(&text)?;
            let prev_fp = v
                .get("fingerprint")
                .and_then(|f| match f {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap_or_default();
            if prev_fp != fp {
                return Err(EngineError::msg(format!(
                    "--resume: run directory was written by a different scenario/scale/seed (fingerprint {prev_fp} != {fp})"
                )));
            }
            if let Some(Json::Arr(ids)) = v.get("done") {
                for entry in ids {
                    match entry {
                        // Legacy manifests: plain id, no content hash.
                        Json::Str(s) => {
                            rd.done.insert(s.clone(), None);
                        }
                        Json::Obj(_) => {
                            if let (Some(Json::Str(id)), Some(Json::Str(h))) =
                                (entry.get("id"), entry.get("hash"))
                            {
                                rd.done.insert(id.clone(), Some(h.clone()));
                            }
                        }
                        _ => {}
                    }
                }
            }
        } else {
            rd.write_manifest()?;
        }
        Ok(rd)
    }

    /// Loads a previously completed job's output, if recorded **and**
    /// intact. A missing, truncated, or corrupted artifact — detected by
    /// the manifest's per-job content fingerprint, or by a parse failure
    /// for pre-fingerprint manifests — yields `Ok(None)`, so `--resume`
    /// re-executes exactly that job instead of failing the run.
    pub fn load_completed(&self, id: &str) -> Result<Option<JobOutput>, EngineError> {
        let Some(recorded_hash) = self.done.get(id) else {
            return Ok(None);
        };
        let path = self.jobs_dir.join(format!("{}.json", sanitize(id)));
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(None); // manifest said done but artifact is gone: re-run
        };
        if let Some(h) = recorded_hash {
            if artifact_fingerprint(&text) != *h {
                eprintln!("warning: artifact {path:?} does not match its recorded fingerprint; re-running {id}");
                return Ok(None);
            }
        }
        match output_from_json(&text) {
            Ok(out) => Ok(Some(out)),
            Err(e) => {
                eprintln!(
                    "warning: corrupt artifact {path:?} ({}); re-running {id}",
                    e.msg
                );
                Ok(None)
            }
        }
    }

    /// Persists one job's output and marks it complete in the manifest,
    /// recording the artifact's content fingerprint.
    pub fn record(&mut self, id: &str, out: &JobOutput) -> Result<(), EngineError> {
        let base = sanitize(id);
        let json = output_to_json(out);
        let json_path = self.jobs_dir.join(format!("{base}.json"));
        std::fs::write(&json_path, &json)
            .map_err(|e| EngineError::msg(format!("cannot write {json_path:?}: {e}")))?;
        let csv = output_to_csv(out);
        if !csv.is_empty() {
            let csv_path = self.jobs_dir.join(format!("{base}.csv"));
            std::fs::write(&csv_path, csv)
                .map_err(|e| EngineError::msg(format!("cannot write {csv_path:?}: {e}")))?;
        }
        self.done
            .insert(id.to_string(), Some(artifact_fingerprint(&json)));
        self.write_manifest()
    }

    fn write_manifest(&self) -> Result<(), EngineError> {
        let ids: Vec<String> = self
            .done
            .iter()
            .map(|(id, hash)| match hash {
                Some(h) => format!("{{\"id\":\"{}\",\"hash\":\"{h}\"}}", json_escape(id)),
                None => format!("\"{}\"", json_escape(id)),
            })
            .collect();
        let text = format!(
            "{{\"scenario\":\"{}\",\"fingerprint\":\"{}\",\"done\":[{}]}}\n",
            json_escape(&self.scenario),
            self.fingerprint,
            ids.join(",")
        );
        let tmp = self.manifest_path.with_extension("json.tmp");
        std::fs::write(&tmp, &text)
            .map_err(|e| EngineError::msg(format!("cannot write {tmp:?}: {e}")))?;
        std::fs::rename(&tmp, &self.manifest_path)
            .map_err(|e| EngineError::msg(format!("cannot update manifest: {e}")))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_depth_limit_is_a_parse_error() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse_json(&nested("[", "]", MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nested("{\"k\":", "}", MAX_JSON_DEPTH).replace(":}", ":1}")).is_ok());
        for deep in [
            nested("[", "]", MAX_JSON_DEPTH + 1),
            "[".repeat(200_000),
            "{".repeat(200_000),
            "{\"k\":".repeat(200_000),
        ] {
            let err = parse_json(&deep).unwrap_err();
            assert!(err.msg.contains("nested deeper than 128"), "{}", err.msg);
        }
    }

    #[test]
    fn experiment_output_roundtrips_exactly() {
        let out = JobOutput::Experiment(ExperimentOutput {
            sizes: vec![10, 100],
            entries: vec![
                (
                    EstimatorKind::StarSize,
                    Target::Size(3),
                    123.456,
                    vec![0.123_456_789_012_345_68, f64::NAN],
                ),
                (
                    EstimatorKind::InducedWeight,
                    Target::Weight(1, 2),
                    1e-9,
                    vec![f64::INFINITY, 0.25],
                ),
            ],
            graph: GraphInfo {
                nodes: 1000,
                edges: 5000,
                mean_degree: 10.0,
                num_categories: 10,
            },
        });
        let json = output_to_json(&out);
        let back = output_from_json(&json).unwrap();
        let JobOutput::Experiment(b) = back else {
            panic!("wrong variant")
        };
        let JobOutput::Experiment(a) = out else {
            unreachable!()
        };
        assert_eq!(a.sizes, b.sizes);
        assert_eq!(a.entries.len(), b.entries.len());
        for ((k1, t1, tr1, s1), (k2, t2, tr2, s2)) in a.entries.iter().zip(&b.entries) {
            assert_eq!(k1, k2);
            assert_eq!(t1, t2);
            assert_eq!(tr1.to_bits(), tr2.to_bits());
            for (x, y) in s1.iter().zip(s2) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "series must round-trip bit-exactly"
                );
            }
        }
    }

    #[test]
    fn sections_roundtrip() {
        let mut table = Table::new(vec!["a".into(), "b".into()]);
        table.row(vec!["1".into(), "x,y\"z\"".into()]);
        let out = JobOutput::Sections(vec![
            ReportSection::Table {
                name: "t1".into(),
                heading: "Head \"quoted\"".into(),
                table,
            },
            ReportSection::Text("line1\nline2".into()),
            ReportSection::File {
                name: "g".into(),
                ext: "dot".into(),
                content: "digraph {}".into(),
            },
            ReportSection::Values(vec![("k".into(), "v".into())]),
        ]);
        let back = output_from_json(&output_to_json(&out)).unwrap();
        let JobOutput::Sections(secs) = back else {
            panic!("wrong variant")
        };
        assert_eq!(secs.len(), 4);
        match &secs[0] {
            ReportSection::Table { heading, table, .. } => {
                assert_eq!(heading, "Head \"quoted\"");
                assert_eq!(table.rows()[0][1], "x,y\"z\"");
            }
            _ => panic!("expected table"),
        }
    }
}
