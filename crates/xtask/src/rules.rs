//! The token-level lint rules: `timer-constants` and `rng-stream`.
//!
//! Both are fixed token patterns over the stream from [`crate::lexer`] —
//! a named constructor called with an integer literal — which is why
//! they live here rather than in clippy, whose configuration can ban a
//! path but not a literal argument. Test code — `#[cfg(test)]` items,
//! `#[test]`/`#[bench]` functions — is exempt: tests pin timers and
//! seeds on purpose.

use crate::diag::{Diagnostic, Span, RULE_RNG_STREAM, RULE_TIMER_CONSTANTS};
use crate::lexer::{Lexed, Token, TokenKind};

/// How much of `timer-constants` applies to a file (decided from its
/// path by [`crate::engine::timer_rule_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerRule {
    /// The file may define timers, or is outside every timer scope.
    Off,
    /// Flag literals equal to a protocol-timer magnitude.
    Magnitudes,
    /// Flag every `from_millis`/`from_secs` literal, and µs magnitudes.
    Literals,
}

/// The protocol timers of `dcn_sim::timers`, in microseconds.
const TIMER_MAGNITUDES_US: &[(u64, &str)] = &[
    (5_000, "CONTROLLER_REPORT_DELAY / CONTROLLER_PUSH_DELAY"),
    (10_000, "FIB_UPDATE_DELAY"),
    (50_000, "CONTROLLER_COMPUTE_DELAY"),
    (60_000, "DETECTION_DELAY"),
    (200_000, "SPF_INITIAL_DELAY"),
    (10_000_000, "SPF_MAX_HOLD"),
];

/// Runs both token rules over the lexed file and returns the surviving
/// diagnostics (inline waivers already applied).
pub fn check(lexed: &Lexed, timers: TimerRule, rel: &str) -> Vec<Diagnostic> {
    let test_lines = test_line_spans(&lexed.tokens);
    let in_test = |line: u32| test_lines.iter().any(|&(lo, hi)| line >= lo && line <= hi);

    let mut out = Vec::new();
    let toks = &lexed.tokens;

    for (i, tok) in toks.iter().enumerate() {
        if in_test(tok.line) {
            continue;
        }
        if let TokenKind::Ident(name) = &tok.kind {
            let span = Span::new(tok.line, tok.col);
            timer_constants_at(toks, i, span, name, timers, rel, &mut out);
            rng_stream_at(toks, i, span, name, rel, &mut out);
        }
    }

    out.retain(|d| {
        !lexed.waivers.iter().any(|w| {
            (w.line == d.span.line || w.line + 1 == d.span.line)
                && w.rules.iter().any(|r| r == d.rule || r == "all")
        })
    });
    out
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize, p: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokenKind::Punct(c)) if *c == p)
}

/// The integer literal that is the whole first argument of the call
/// whose `(` sits at `open` — `(200)`, `(42, stream)` — as its folded
/// value and the spelling to show (the value, or the raw token when it
/// does not fold).
fn literal_first_arg(toks: &[Token], open: usize) -> Option<(Option<u64>, String)> {
    if !punct_at(toks, open, '(') {
        return None;
    }
    let Some(TokenKind::Int(value, raw)) = toks.get(open + 1).map(|t| &t.kind) else {
        return None;
    };
    let shown = value.map_or_else(|| raw.clone(), |v| v.to_string());
    (punct_at(toks, open + 2, ')') || punct_at(toks, open + 2, ',')).then_some((*value, shown))
}

/// `from_millis(200)` / `from_secs(60)` / `from_micros(200_000)` with a
/// literal argument: protocol timer values must flow from
/// `dcn_sim::timers` so the paper's recovery-time budget stays auditable
/// in one place. `from_micros` and
/// `from_nanos` are packet-level arithmetic, so a microsecond literal is
/// flagged only when it equals a protocol timer.
fn timer_constants_at(
    toks: &[Token],
    i: usize,
    span: Span,
    name: &str,
    timers: TimerRule,
    rel: &str,
    out: &mut Vec<Diagnostic>,
) {
    let us_per_unit = match name {
        "from_micros" => 1,
        "from_millis" => 1_000,
        "from_secs" => 1_000_000,
        _ => return,
    };
    let Some((value, shown)) = literal_first_arg(toks, i + 1) else {
        return;
    };
    let constant = value
        .and_then(|v| v.checked_mul(us_per_unit))
        .and_then(|us| TIMER_MAGNITUDES_US.iter().find(|(m, _)| *m == us))
        .map(|(_, constant)| *constant);
    let fires = match timers {
        TimerRule::Off => false,
        TimerRule::Magnitudes => constant.is_some(),
        TimerRule::Literals => constant.is_some() || name != "from_micros",
    };
    if !fires {
        return;
    }
    let fix = constant.map_or_else(
        || "a named constant from `dcn_sim::timers`".to_string(),
        |c| format!("`dcn_sim::timers::{c}`"),
    );
    out.push(Diagnostic::new(
        rel,
        span,
        RULE_TIMER_CONSTANTS,
        format!("hard-coded timer `{name}({shown})`; use {fix} (crates/sim/src/timers.rs)"),
    ));
}

/// `SimRng::new(42)`, the workspace's one RNG constructor: a literal seed
/// pins a private stream that no longer depends on the experiment's master
/// seed.
fn rng_stream_at(
    toks: &[Token],
    i: usize,
    span: Span,
    owner: &str,
    rel: &str,
    out: &mut Vec<Diagnostic>,
) {
    if !punct_at(toks, i + 1, ':') || !punct_at(toks, i + 2, ':') {
        return;
    }
    let Some(name) = ident_at(toks, i + 3) else {
        return;
    };
    if (owner, name) != ("SimRng", "new") {
        return;
    }
    let Some((_, seed)) = literal_first_arg(toks, i + 4) else {
        return;
    };
    out.push(Diagnostic::new(
        rel,
        span,
        RULE_RNG_STREAM,
        format!(
            "literal seed {seed} passed to `{owner}::{name}`; non-test RNG streams must \
             derive from the master seed via `SimRng::fork(stream)` or \
             `cell_rng(master, index)`"
        ),
    ));
}

/// Line spans of `#[cfg(test)]` / `#[test]` / `#[bench]` items.
///
/// Strategy: on seeing one of those attributes, find the start of the item
/// body — the first `{` at attribute depth — and return the span up to its
/// matching `}`. Attributes on brace-less items (`#[cfg(test)] use ...;`)
/// span to the terminating `;` instead.
fn test_line_spans(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut spans: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while let Some(tok) = toks.get(i) {
        if is_test_attribute(toks, i) {
            let start_line = tok.line;
            let mut j = i;
            let mut depth = 0i64;
            let mut end_line = start_line;
            // Walk forward to the item body.
            while let Some(t) = toks.get(j) {
                match &t.kind {
                    TokenKind::Punct('{') => {
                        depth += 1;
                    }
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth <= 0 {
                            end_line = t.line;
                            break;
                        }
                    }
                    TokenKind::Punct(';') if depth == 0 => {
                        end_line = t.line;
                        break;
                    }
                    _ => {}
                }
                end_line = t.line;
                j += 1;
            }
            spans.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// Matches `#[cfg(test)]`, `#[cfg(any(test, ...))]`, `#[test]`, `#[bench]`
/// starting at token `i` (`#`). A `test` under an odd number of `not(..)`
/// does not count: `#[cfg(not(test))]` code is compiled *only* outside
/// tests, so it is exactly what the rules must see.
fn is_test_attribute(toks: &[Token], i: usize) -> bool {
    if !punct_at(toks, i, '#') || !punct_at(toks, i + 1, '[') {
        return false;
    }
    match ident_at(toks, i + 2) {
        Some("test") | Some("bench") => punct_at(toks, i + 3, ']'),
        Some("cfg") => {
            // One entry per open `(`: was it opened by `not`?
            let mut parens: Vec<bool> = Vec::new();
            let mut j = i + 3;
            while let Some(tok) = toks.get(j) {
                match &tok.kind {
                    TokenKind::Punct('(') => {
                        parens.push(ident_at(toks, j - 1) == Some("not"));
                    }
                    TokenKind::Punct(')') => {
                        parens.pop();
                    }
                    TokenKind::Punct(']') if parens.is_empty() => return false,
                    TokenKind::Ident(s) if s == "test" => {
                        let negations = parens.iter().filter(|&&not| not).count();
                        if negations % 2 == 0 {
                            return true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            false
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit_in(src: &str, timers: TimerRule) -> Vec<&'static str> {
        check(&lex(src), timers, "test.rs")
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    fn rules_hit(src: &str) -> Vec<&'static str> {
        rules_hit_in(src, TimerRule::Literals)
    }

    #[test]
    fn timer_literals_are_flagged() {
        assert_eq!(
            rules_hit("let d = SimDuration::from_millis(200);"),
            vec![RULE_TIMER_CONSTANTS]
        );
        assert_eq!(
            rules_hit("let d = Duration::from_secs(60);"),
            vec![RULE_TIMER_CONSTANTS]
        );
        // Values that flow from config are fine.
        assert!(rules_hit("let d = SimDuration::from_millis(cfg.spf_delay_ms);").is_empty());
        assert!(rules_hit("let d = SimDuration::from_millis(100 * (i + 1));").is_empty());
        // Packet-scale arithmetic is fine.
        assert!(rules_hit("let d = SimDuration::from_nanos(1200);").is_empty());
        assert!(rules_hit("let d = SimDuration::from_micros(100);").is_empty());
    }

    #[test]
    fn timer_magnitudes_are_flagged_in_any_unit_and_name_the_constant() {
        for src in [
            "D::from_micros(200_000)",
            "D::from_millis(200)",
            "D::from_secs(10)",
        ] {
            assert_eq!(
                rules_hit_in(src, TimerRule::Magnitudes),
                vec![RULE_TIMER_CONSTANTS]
            );
            assert_eq!(
                rules_hit_in(src, TimerRule::Literals),
                vec![RULE_TIMER_CONSTANTS]
            );
            assert!(rules_hit_in(src, TimerRule::Off).is_empty());
        }
        let diags = check(
            &lex("D::from_micros(60_000)"),
            TimerRule::Magnitudes,
            "f.rs",
        );
        let message = &diags.first().expect("one diagnostic").message;
        assert!(message.contains("from_micros(60000)"), "{message}");
        assert!(
            message.contains("dcn_sim::timers::DETECTION_DELAY"),
            "{message}"
        );
        // Outside the strict scope only the magnitudes fire: a 250 ms
        // deadline or a 100 ms analysis window is not a protocol timer.
        assert!(rules_hit_in("D::from_millis(250)", TimerRule::Magnitudes).is_empty());
        assert!(rules_hit_in("D::from_secs(2)", TimerRule::Magnitudes).is_empty());
    }

    #[test]
    fn rng_stream_flags_literal_seeds_outside_tests() {
        let src = "pub fn bad() -> u64 { let mut r = SimRng::new(42); r.next() }\n\
                   pub fn good(seed: u64) -> u64 { let mut r = SimRng::new(seed); r.next() }\n\
                   #[cfg(test)] mod tests {\n\
                       fn ok() { let _ = SimRng::new(7); }\n\
                   }";
        let diags = check(&lex(src), TimerRule::Off, "f.rs");
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("one diagnostic");
        assert_eq!(d.rule, RULE_RNG_STREAM);
        assert!(d.message.contains("literal seed 42"), "{}", d.message);
        assert_eq!((d.span.line, d.span.col), (1, 35), "position of `SimRng`");
    }

    #[test]
    fn rng_stream_covers_every_constructor_and_only_the_seed_argument() {
        for src in ["SimRng::new(0x2A)", "SimRng::new(42_u64)"] {
            assert_eq!(rules_hit(src), vec![RULE_RNG_STREAM], "{src}");
        }
        // A literal *stream* under a derived seed is the blessed idiom.
        assert!(rules_hit("SimRng::new(master_seed).fork(3)").is_empty());
        assert!(rules_hit("rng.fork(7)").is_empty());
        // Other types' `new` are not RNG constructors.
        assert!(rules_hit("LogNormal::new(1, 2)").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            fn lib_code() -> SimRng { SimRng::new(1) }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let r = SimRng::new(2);
                    let d = SimDuration::from_millis(200);
                }
            }
            #[test]
            fn loose() { SimRng::new(3); }
        "#;
        let hits = rules_hit(src);
        assert_eq!(hits, vec![RULE_RNG_STREAM], "only the lib seed: {hits:?}");
    }

    #[test]
    fn cfg_not_test_code_is_not_exempt() {
        let body = "fn f() { SimRng::new(42); SimTime::from_millis(200); }";
        let both = vec![RULE_RNG_STREAM, RULE_TIMER_CONSTANTS];
        assert_eq!(rules_hit(&format!("#[cfg(not(test))] {body}")), both);
        assert_eq!(
            rules_hit(&format!("#[cfg(all(not(test), feature = \"x\"))] {body}")),
            both
        );
        assert_eq!(
            rules_hit(&format!("#[cfg(not(any(test, fuzzing)))] {body}")),
            both
        );
        // Still test-only: a plain or doubly negated `test`.
        assert!(rules_hit(&format!("#[cfg(any(test, feature = \"x\"))] {body}")).is_empty());
        assert!(rules_hit(&format!("#[cfg(all(test, not(miri)))] {body}")).is_empty());
        assert!(rules_hit(&format!("#[cfg(not(not(test)))] {body}")).is_empty());
        // A cfg that never mentions `test` exempts nothing.
        assert_eq!(rules_hit(&format!("#[cfg(feature = \"x\")] {body}")), both);
    }

    #[test]
    fn waivers_suppress_same_and_next_line() {
        let src = "// lint:allow(rng-stream)\nlet r = SimRng::new(1);\n";
        assert!(rules_hit(src).is_empty());
        let src2 = "let d = D::from_millis(200); // lint:allow(timer-constants)\n";
        assert!(rules_hit(src2).is_empty());
        // Wrong rule name does not suppress.
        let src3 = "let r = SimRng::new(1); // lint:allow(timer-constants)\n";
        assert_eq!(rules_hit(src3), vec![RULE_RNG_STREAM]);
    }

    #[test]
    fn diagnostics_carry_columns() {
        let diags = check(
            &lex("let d = D::from_millis(5);"),
            TimerRule::Literals,
            "f.rs",
        );
        let d = diags.first().expect("one diagnostic");
        assert_eq!(d.span.line, 1);
        assert_eq!(d.span.col, 12, "column of `from_millis`");
        assert_eq!(d.file, "f.rs");
    }
}
