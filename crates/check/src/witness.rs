//! Serializable counterexamples: emit, parse, shrink, replay.
//!
//! A witness is a complete, self-contained description of one violating
//! run: the instance (algorithm, topology, seed, bounds, workload,
//! mutation) plus the delay chosen at every branch point. Replaying it
//! re-runs the deterministic engine and reproduces the identical trace and
//! violation, byte for byte, on any machine.

use harness::AlgKind;

use crate::spec::{CheckSpec, Mutation};
use crate::strategy::Plan;
use crate::verdict::{run_schedule, RunVerdict};

/// The minimum legal delivery delay (`SimConfig::min_message_delay` in
/// every checker run). Replay defaults to this beyond the recorded
/// choices, so trailing entries equal to it are redundant.
pub const MIN_DELAY: u64 = 1;

/// A serializable counterexample schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Algorithm name (as printed by `AlgKind::name`).
    pub alg: String,
    /// Topology label (e.g. `line:3`).
    pub topo: String,
    /// Number of nodes.
    pub n: usize,
    /// Undirected edges.
    pub edges: Vec<(u32, u32)>,
    /// Engine seed.
    pub seed: u64,
    /// Maximum message delay ν.
    pub nu: u64,
    /// Run horizon in ticks.
    pub horizon: u64,
    /// Fixed eating duration in ticks.
    pub eat: u64,
    /// Nodes hungry at tick 1.
    pub hungry: Vec<u32>,
    /// Mutation name (see `Mutation::name`).
    pub mutation: String,
    /// Whether the run used the recycling liveness workload (see
    /// `CheckSpec::liveness`). Absent in pre-liveness witness files, which
    /// parse as `false`.
    pub liveness: bool,
    /// Thinking time of the liveness workload; parses as 10 when absent.
    pub think: u64,
    /// Violated property.
    pub property: String,
    /// Deterministic description of the violation.
    pub detail: String,
    /// Delay per branch point, in encounter order.
    pub choices: Vec<u64>,
}

impl Witness {
    /// Assemble a witness from a spec, a schedule, and its violation.
    pub fn new(spec: &CheckSpec, choices: Vec<u64>, property: &str, detail: &str) -> Witness {
        Witness {
            alg: spec.alg.name().to_string(),
            topo: spec.topo.clone(),
            n: spec.n,
            edges: spec.edges.clone(),
            seed: spec.seed,
            nu: spec.nu,
            horizon: spec.horizon,
            eat: spec.eat,
            hungry: spec.hungry.clone(),
            mutation: spec.mutation.name().to_string(),
            liveness: spec.liveness,
            think: spec.think,
            property: property.to_string(),
            detail: detail.to_string(),
            choices,
        }
    }

    /// Rebuild the check instance this witness was recorded against.
    ///
    /// # Errors
    ///
    /// Returns a message if the algorithm or mutation name is unknown or
    /// the rebuilt spec fails validation.
    pub fn to_spec(&self) -> Result<CheckSpec, String> {
        let alg = AlgKind::extended()
            .into_iter()
            .find(|k| k.name() == self.alg)
            .ok_or_else(|| format!("witness names unknown algorithm '{}'", self.alg))?;
        let spec = CheckSpec {
            alg,
            topo: self.topo.clone(),
            n: self.n,
            edges: self.edges.clone(),
            seed: self.seed,
            nu: self.nu,
            horizon: self.horizon,
            eat: self.eat,
            hungry: self.hungry.clone(),
            mutation: Mutation::parse(&self.mutation)?,
            // Witnesses describe bare-channel schedules; the shim's own
            // timers would shift every branch point, so replay never arms it.
            arq: None,
            liveness: self.liveness,
            think: self.think,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize as a single JSON line with a fixed key order.
    pub fn to_json(&self) -> String {
        let edges: Vec<String> = self
            .edges
            .iter()
            .map(|(a, b)| format!("[{a},{b}]"))
            .collect();
        let hungry: Vec<String> = self.hungry.iter().map(u32::to_string).collect();
        let choices: Vec<String> = self.choices.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"version\":1,\"alg\":{},\"topo\":{},\"n\":{},\"edges\":[{}],",
                "\"seed\":{},\"nu\":{},\"horizon\":{},\"eat\":{},\"hungry\":[{}],",
                "\"mutation\":{},\"liveness\":{},\"think\":{},",
                "\"property\":{},\"detail\":{},\"choices\":[{}]}}"
            ),
            json_str(&self.alg),
            json_str(&self.topo),
            self.n,
            edges.join(","),
            self.seed,
            self.nu,
            self.horizon,
            self.eat,
            hungry.join(","),
            json_str(&self.mutation),
            u64::from(self.liveness),
            self.think,
            json_str(&self.property),
            json_str(&self.detail),
            choices.join(","),
        )
    }

    /// Parse a witness produced by [`Witness::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input or a
    /// missing/ill-typed key.
    pub fn from_json(text: &str) -> Result<Witness, String> {
        let fields = parse_object(text)?;
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("witness is missing key '{key}'"))
        };
        let num = |key: &str| -> Result<u64, String> {
            match get(key)? {
                JVal::Num(v) => Ok(*v),
                _ => Err(format!("witness key '{key}' must be a number")),
            }
        };
        let string = |key: &str| -> Result<String, String> {
            match get(key)? {
                JVal::Str(s) => Ok(s.clone()),
                _ => Err(format!("witness key '{key}' must be a string")),
            }
        };
        let nums = |key: &str| -> Result<Vec<u64>, String> {
            match get(key)? {
                JVal::Arr(items) => items
                    .iter()
                    .map(|v| match v {
                        JVal::Num(n) => Ok(*n),
                        _ => Err(format!("witness key '{key}' must hold numbers")),
                    })
                    .collect(),
                _ => Err(format!("witness key '{key}' must be an array")),
            }
        };
        // Keys added after the format shipped parse with their pre-existing
        // default, so old witness files replay unchanged.
        let num_or = |key: &str, default: u64| -> Result<u64, String> {
            match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                None => Ok(default),
                Some(JVal::Num(v)) => Ok(*v),
                Some(_) => Err(format!("witness key '{key}' must be a number")),
            }
        };
        if num("version")? != 1 {
            return Err("unsupported witness version".into());
        }
        let edges = match get("edges")? {
            JVal::Arr(items) => items
                .iter()
                .map(|v| match v {
                    JVal::Arr(pair) => match pair.as_slice() {
                        [JVal::Num(a), JVal::Num(b)] => Ok((*a as u32, *b as u32)),
                        _ => Err("each edge must be a [a,b] pair".to_string()),
                    },
                    _ => Err("each edge must be a [a,b] pair".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("witness key 'edges' must be an array".into()),
        };
        Ok(Witness {
            alg: string("alg")?,
            topo: string("topo")?,
            n: num("n")? as usize,
            edges,
            seed: num("seed")?,
            nu: num("nu")?,
            horizon: num("horizon")?,
            eat: num("eat")?,
            hungry: nums("hungry")?.into_iter().map(|v| v as u32).collect(),
            mutation: string("mutation")?,
            liveness: num_or("liveness", 0)? != 0,
            think: num_or("think", 10)?,
            property: string("property")?,
            detail: string("detail")?,
            choices: nums("choices")?,
        })
    }
}

/// Replay a witness: rebuild its spec and re-run its recorded schedule.
///
/// # Errors
///
/// Returns a message if the witness does not describe a valid instance.
pub fn replay(witness: &Witness) -> Result<(CheckSpec, RunVerdict), String> {
    let spec = witness.to_spec()?;
    let verdict = run_schedule(
        &spec,
        &Plan::Replay {
            delays: witness.choices.clone(),
        },
    );
    Ok((spec, verdict))
}

/// Shrink a violating schedule to a minimal counterexample for the same
/// property: drop hungry commands, truncate the choice suffix, and reset
/// individual choices to the earliest delay — keeping every change that
/// still reproduces `property`. Costs at most `budget` replays; returns
/// the shrunk spec, the shrunk delays, and the number of replays spent.
pub fn shrink(
    spec: &CheckSpec,
    delays: Vec<u64>,
    property: &str,
    budget: usize,
) -> (CheckSpec, Vec<u64>, usize) {
    let mut spec = spec.clone();
    let mut best = delays;
    let mut runs = 0usize;
    let still_fails = |spec: &CheckSpec, delays: &[u64], runs: &mut usize| -> bool {
        if *runs >= budget {
            return false;
        }
        *runs += 1;
        run_schedule(
            spec,
            &Plan::Replay {
                delays: delays.to_vec(),
            },
        )
        .violation
        .is_some_and(|v| v.property == property)
    };

    // Pass 1: drop hungry commands, last to first (fewer contenders is a
    // structurally simpler counterexample).
    let mut i = spec.hungry.len();
    while i > 0 {
        i -= 1;
        if spec.hungry.len() <= 1 {
            break;
        }
        let mut candidate = spec.clone();
        candidate.hungry.remove(i);
        if still_fails(&candidate, &best, &mut runs) {
            spec = candidate;
        }
    }

    // Pass 2: truncate the choice suffix — halving first, then one by one.
    // Replay defaults to the earliest delay past the end of the list.
    loop {
        let half = best.len() / 2;
        if half == 0 || !still_fails(&spec, &best[..half], &mut runs) {
            break;
        }
        best.truncate(half);
    }
    while !best.is_empty() && still_fails(&spec, &best[..best.len() - 1], &mut runs) {
        best.pop();
    }

    // Pass 3: normalize surviving choices to the earliest delay where the
    // violation does not depend on them.
    for i in 0..best.len() {
        if best[i] != MIN_DELAY {
            let saved = best[i];
            best[i] = MIN_DELAY;
            if !still_fails(&spec, &best, &mut runs) {
                best[i] = saved;
            }
        }
    }

    // Trailing earliest-delay entries are replay's default: drop for free.
    while best.last() == Some(&MIN_DELAY) {
        best.pop();
    }

    (spec, best, runs)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The JSON subset a witness uses: unsigned numbers, strings, and arrays.
#[derive(Clone, Debug, PartialEq, Eq)]
enum JVal {
    Num(u64),
    Str(String),
    Arr(Vec<JVal>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of witness JSON",
                b as char, self.pos
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string in witness JSON".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?} in witness JSON")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "witness JSON is not UTF-8")?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start} of witness JSON"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are UTF-8")
            .parse()
            .map_err(|_| "number out of range in witness JSON".to_string())
    }

    fn value(&mut self) -> Result<JVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JVal::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => Ok(JVal::Num(self.number()?)),
            other => Err(format!(
                "unexpected {other:?} at byte {} of witness JSON",
                self.pos
            )),
        }
    }
}

fn parse_object(text: &str) -> Result<Vec<(String, JVal)>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut fields = Vec::new();
    if p.peek() == Some(b'}') {
        return Ok(fields);
    }
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        let val = p.value()?;
        fields.push((key, val));
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => return Ok(fields),
            _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Witness {
        Witness {
            alg: "A1-greedy".into(),
            topo: "line:3".into(),
            n: 3,
            edges: vec![(0, 1), (1, 2)],
            seed: 0xA77D_2008,
            nu: 10,
            horizon: 4000,
            eat: 10,
            hungry: vec![0, 2],
            mutation: "no-sdf-guard".into(),
            liveness: false,
            think: 10,
            property: "lme-safety".into(),
            detail: "neighbors p0 and p1 both eating at t=37".into(),
            choices: vec![10, 1, 7],
        }
    }

    #[test]
    fn json_round_trips() {
        let w = sample();
        let json = w.to_json();
        assert!(json.starts_with("{\"version\":1,\"alg\":\"A1-greedy\""));
        assert_eq!(Witness::from_json(&json).unwrap(), w);
    }

    #[test]
    fn json_escapes_round_trip() {
        let mut w = sample();
        w.detail = "quote \" backslash \\ newline \n control \u{1} done".into();
        assert_eq!(Witness::from_json(&w.to_json()).unwrap(), w);
    }

    #[test]
    fn liveness_keys_round_trip_and_default_when_absent() {
        let mut w = sample();
        w.liveness = true;
        w.think = 25;
        let json = w.to_json();
        assert!(json.contains("\"liveness\":1,\"think\":25"));
        assert_eq!(Witness::from_json(&json).unwrap(), w);
        // A pre-liveness witness file (no such keys) parses with defaults.
        let legacy = json
            .replace("\"liveness\":1,\"think\":25,", "")
            .replace("\"mutation\":\"no-sdf-guard\"", "\"mutation\":\"none\"");
        let parsed = Witness::from_json(&legacy).unwrap();
        assert!(!parsed.liveness);
        assert_eq!(parsed.think, 10);
    }

    #[test]
    fn parser_rejects_garbage_and_missing_keys() {
        assert!(Witness::from_json("not json").is_err());
        assert!(Witness::from_json("{\"version\":1}").is_err());
        assert!(Witness::from_json("{\"version\":2,\"alg\":\"A2\"}").is_err());
    }

    #[test]
    fn to_spec_validates_algorithm_and_mutation_names() {
        let mut w = sample();
        w.to_spec().unwrap();
        w.alg = "A9-quantum".into();
        assert!(w.to_spec().is_err());
        let mut w = sample();
        w.mutation = "bogus".into();
        assert!(w.to_spec().is_err());
    }
}
