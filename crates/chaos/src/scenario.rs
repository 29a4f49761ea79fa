//! Replayable chaos scenarios: a typed failure script plus a line-oriented
//! text encoding.
//!
//! A [`ScenarioSpec`] is the unit the whole crate revolves around: the
//! campaign generator produces them, the engine runs them, the shrinker
//! deletes incidents from them, and violations are reported as the rendered
//! text form so a failing campaign can be replayed from a file with no
//! random state involved.
//!
//! The text format is deliberately trivial (the workspace's vendored `serde`
//! is a no-op stub, so there is no derive-based serialization to lean on):
//!
//! ```text
//! # dcn-chaos scenario v1
//! design fat-tree
//! k 4
//! hosts-per-tor 1
//! incident single-link
//!   down 100000 17
//!   up 600000 17
//! ```
//!
//! Times are microseconds since simulation start; links are raw [`LinkId`]
//! indices into the topology that `design`/`k`/`hosts-per-tor` rebuild.

use std::fmt;

use dcn_failure::{FailureEvent, FailureSchedule};
use dcn_net::LinkId;
use dcn_sim::SimTime;
use f2tree::Design;

/// The high-level failure pattern an [`Incident`] was generated from.
///
/// The kind does not affect replay (the events are self-contained); it is
/// kept so reports and shrunk reproducers stay human-readable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// One link fails and is later repaired.
    SingleLink,
    /// Several links fail near-simultaneously (shared-risk group).
    CorrelatedLinks,
    /// Every link of one switch fails at once (switch crash) and recovers.
    SwitchDown,
    /// One link flaps down/up several times.
    Flap,
    /// A second link fails inside the detection/SPF window of the first,
    /// i.e. a failure lands while the control plane is still reconverging.
    Reconvergence,
}

impl IncidentKind {
    /// All kinds, in the order the campaign generator samples them.
    pub const ALL: [IncidentKind; 5] = [
        IncidentKind::SingleLink,
        IncidentKind::CorrelatedLinks,
        IncidentKind::SwitchDown,
        IncidentKind::Flap,
        IncidentKind::Reconvergence,
    ];

    /// Stable token used in scenario files.
    pub fn token(self) -> &'static str {
        match self {
            IncidentKind::SingleLink => "single-link",
            IncidentKind::CorrelatedLinks => "correlated-links",
            IncidentKind::SwitchDown => "switch-down",
            IncidentKind::Flap => "flap",
            IncidentKind::Reconvergence => "reconvergence",
        }
    }

    /// Inverse of [`IncidentKind::token`].
    pub fn from_token(token: &str) -> Option<IncidentKind> {
        IncidentKind::ALL.into_iter().find(|k| k.token() == token)
    }
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One failure episode: a kind tag plus the concrete link events it expands
/// to. Incidents are the granularity the shrinker works at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incident {
    /// What pattern generated these events.
    pub kind: IncidentKind,
    /// The events, in the order they were generated (not necessarily
    /// time-sorted across incidents).
    pub events: Vec<FailureEvent>,
}

impl Incident {
    /// The latest event time in this incident, or `SimTime::ZERO` if empty.
    pub fn last_event_time(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// A complete, self-contained chaos scenario: which testbed to build and
/// what to do to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Which design to build ([`Design::FatTree`] or [`Design::F2Tree`]).
    pub design: Design,
    /// Fat-tree arity.
    pub k: u32,
    /// Hosts per ToR.
    pub hosts_per_tor: u32,
    /// The failure episodes to inject.
    pub incidents: Vec<Incident>,
}

impl ScenarioSpec {
    /// Flattens the incidents into a single [`FailureSchedule`].
    pub fn schedule(&self) -> FailureSchedule {
        self.incidents
            .iter()
            .flat_map(|i| i.events.iter().copied())
            .collect()
    }

    /// The latest event time across all incidents (`ZERO` when empty).
    pub fn last_event_time(&self) -> SimTime {
        self.incidents
            .iter()
            .map(Incident::last_event_time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// A copy containing only the incidents at `indices` (in the given
    /// order). Out-of-range indices are ignored. Used by the shrinker.
    pub fn with_incidents(&self, indices: &[usize]) -> ScenarioSpec {
        ScenarioSpec {
            design: self.design,
            k: self.k,
            hosts_per_tor: self.hosts_per_tor,
            incidents: indices
                .iter()
                .filter_map(|&i| self.incidents.get(i).cloned())
                .collect(),
        }
    }

    /// Renders the scenario in the replayable text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# dcn-chaos scenario v1\n");
        out.push_str(&format!("design {}\n", design_token(self.design)));
        out.push_str(&format!("k {}\n", self.k));
        out.push_str(&format!("hosts-per-tor {}\n", self.hosts_per_tor));
        for incident in &self.incidents {
            out.push_str(&format!("incident {}\n", incident.kind));
            for e in &incident.events {
                let dir = if e.up { "up" } else { "down" };
                let micros = e.at.since(SimTime::ZERO).as_micros();
                out.push_str(&format!("  {dir} {micros} {}\n", e.link.index()));
            }
        }
        out
    }

    /// Parses the text format produced by [`ScenarioSpec::render`].
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioParseError> {
        let mut design = None;
        let mut k = None;
        let mut hosts_per_tor = None;
        let mut incidents: Vec<Incident> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().unwrap_or_default();
            match keyword {
                "design" => {
                    let token = parts.next().unwrap_or_default();
                    design = Some(design_from_token(token).ok_or_else(|| {
                        ScenarioParseError::bad(lineno, format!("unknown design `{token}`"))
                    })?);
                }
                "k" => k = Some(parse_num(lineno, parts.next(), "k")?),
                "hosts-per-tor" => {
                    hosts_per_tor = Some(parse_num(lineno, parts.next(), "hosts-per-tor")?);
                }
                "incident" => {
                    let token = parts.next().unwrap_or_default();
                    let kind = IncidentKind::from_token(token).ok_or_else(|| {
                        ScenarioParseError::bad(lineno, format!("unknown incident kind `{token}`"))
                    })?;
                    incidents.push(Incident {
                        kind,
                        events: Vec::new(),
                    });
                }
                "down" | "up" => {
                    let micros: u64 = parse_num(lineno, parts.next(), "time")?;
                    let at = micros.checked_mul(1_000).map(SimTime::from_nanos).ok_or_else(|| {
                        let message = format!("time `{micros}` overflows the clock");
                        ScenarioParseError::bad(lineno, message)
                    })?;
                    let link: u32 = parse_num(lineno, parts.next(), "link")?;
                    let incident = incidents.last_mut().ok_or_else(|| {
                        ScenarioParseError::bad(lineno, "event before any `incident` line".into())
                    })?;
                    incident.events.push(FailureEvent {
                        at,
                        link: LinkId::new(link),
                        up: keyword == "up",
                    });
                }
                other => {
                    return Err(ScenarioParseError::bad(
                        lineno,
                        format!("unknown keyword `{other}`"),
                    ));
                }
            }
            if parts.next().is_some() {
                return Err(ScenarioParseError::bad(lineno, "trailing tokens".into()));
            }
        }

        Ok(ScenarioSpec {
            design: design.ok_or(ScenarioParseError::MissingField("design"))?,
            k: k.ok_or(ScenarioParseError::MissingField("k"))?,
            hosts_per_tor: hosts_per_tor.ok_or(ScenarioParseError::MissingField("hosts-per-tor"))?,
            incidents,
        })
    }
}

fn parse_num<T: std::str::FromStr>(
    lineno: usize,
    token: Option<&str>,
    what: &str,
) -> Result<T, ScenarioParseError> {
    let token = token.ok_or_else(|| ScenarioParseError::bad(lineno, format!("missing {what}")))?;
    token
        .parse()
        .map_err(|_| ScenarioParseError::bad(lineno, format!("bad {what} `{token}`")))
}

/// The scenario-file token of `design`, also the campaign report's label.
pub(crate) fn design_token(design: Design) -> &'static str {
    match design {
        Design::FatTree => "fat-tree",
        Design::F2Tree => "f2tree",
    }
}

fn design_from_token(token: &str) -> Option<Design> {
    match token {
        "fat-tree" => Some(Design::FatTree),
        "f2tree" => Some(Design::F2Tree),
        _ => None,
    }
}

/// Errors from [`ScenarioSpec::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioParseError {
    /// A required header field never appeared.
    MissingField(&'static str),
    /// A line failed to parse.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl ScenarioParseError {
    fn bad(line: usize, message: String) -> ScenarioParseError {
        ScenarioParseError::BadLine { line, message }
    }
}

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioParseError::MissingField(field) => {
                write!(f, "scenario file is missing the `{field}` header")
            }
            ScenarioParseError::BadLine { line, message } => {
                write!(f, "scenario file line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioParseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::SimDuration;

    fn ms(v: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(v)
    }

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            design: Design::F2Tree,
            k: 4,
            hosts_per_tor: 1,
            incidents: vec![
                Incident {
                    kind: IncidentKind::Flap,
                    events: vec![
                        FailureEvent {
                            at: ms(100),
                            link: LinkId::new(7),
                            up: false,
                        },
                        FailureEvent {
                            at: ms(180),
                            link: LinkId::new(7),
                            up: true,
                        },
                    ],
                },
                Incident {
                    kind: IncidentKind::SingleLink,
                    events: vec![
                        FailureEvent {
                            at: ms(500),
                            link: LinkId::new(12),
                            up: false,
                        },
                        FailureEvent {
                            at: ms(900),
                            link: LinkId::new(12),
                            up: true,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let spec = sample();
        let parsed = ScenarioSpec::parse(&spec.render()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn schedule_flattens_all_events() {
        let spec = sample();
        let schedule = spec.schedule();
        assert_eq!(schedule.len(), 4);
        assert_eq!(schedule.failure_count(), 2);
        assert_eq!(spec.last_event_time(), ms(900));
    }

    #[test]
    fn with_incidents_selects_subset() {
        let spec = sample();
        let sub = spec.with_incidents(&[1]);
        assert_eq!(sub.incidents.len(), 1);
        assert_eq!(sub.incidents[0].kind, IncidentKind::SingleLink);
        // Out-of-range indices are ignored rather than panicking.
        assert!(spec.with_incidents(&[9]).incidents.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            ScenarioSpec::parse("design warp-core\nk 4\nhosts-per-tor 1\n"),
            Err(ScenarioParseError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            ScenarioSpec::parse("k 4\nhosts-per-tor 1\n"),
            Err(ScenarioParseError::MissingField("design"))
        ));
        assert!(matches!(
            ScenarioSpec::parse("design f2tree\nk 4\nhosts-per-tor 1\ndown 5 1\n"),
            Err(ScenarioParseError::BadLine { line: 4, .. })
        ));
        assert!(matches!(
            ScenarioSpec::parse("design f2tree\nk nope\nhosts-per-tor 1\n"),
            Err(ScenarioParseError::BadLine { line: 2, .. })
        ));
    }
}
