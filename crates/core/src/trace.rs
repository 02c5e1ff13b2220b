//! Chrome `trace_event` export of a simulated run.
//!
//! Converts the simulator's instruction trace ([`wm_sim::TraceEvent`]),
//! FIFO-depth timeline ([`wm_sim::DepthSample`]) and fast-forwarded
//! stall spans ([`wm_sim::FfSpan`]) into the JSON format understood by
//! `chrome://tracing` and [Perfetto]. Each unit (IFU, IEU, FEU, VEU,
//! SCU *n*) becomes a named track of duration events; each tracked FIFO
//! becomes a counter track showing its occupancy over time. Timestamps
//! are simulated cycles, reported in the trace's microsecond field so
//! one cycle renders as 1 µs.
//!
//! Spans the simulator fast-forwarded over appear as one coalesced
//! `stall:<reason>` (or `idle`) event per stalled unit instead of
//! thousands of per-cycle events, so a latency-dominated trace stays
//! small and readable.
//!
//! [Perfetto]: https://ui.perfetto.dev

use wm_sim::{DepthSample, FfSpan, Outcome, TraceEvent};

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The track label of a fast-forwarded outcome, or `None` for `Active`
/// (an active unit never fast-forwards, but be defensive).
fn outcome_label(o: Outcome) -> Option<String> {
    match o {
        Outcome::Active => None,
        Outcome::Idle => Some("idle".to_string()),
        Outcome::Stall(s) => Some(format!("stall:{}", s.name())),
    }
}

/// Render a run as a Chrome `trace_event` JSON document.
///
/// `events` come from [`wm_sim::WmMachine::trace`] (instruction-level
/// tracing), `timeline` from [`wm_sim::WmMachine::timeline`]
/// (FIFO-depth change points) and `spans` from
/// [`wm_sim::WmMachine::ff_spans`] (stall spans the simulator
/// fast-forwarded over). Any of them may be empty; the result is
/// always a valid trace.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent], timeline: &[DepthSample], spans: &[FfSpan]) -> String {
    // Stable unit → track-id mapping, in order of first appearance.
    // Fast-forward spans cover every unit, so register their tracks
    // too (SCU track names are owned strings; instruction events only
    // ever carry static names).
    let mut units: Vec<String> = Vec::new();
    let intern = |name: &str, units: &mut Vec<String>| {
        if !units.iter().any(|u| u == name) {
            units.push(name.to_string());
        }
    };
    for ev in events {
        intern(ev.unit, &mut units);
    }
    if let Some(s) = spans.first() {
        for unit in ["IEU", "FEU", "VEU", "IFU"] {
            intern(unit, &mut units);
        }
        for i in 0..s.scus.len() {
            intern(&format!("SCU{i}"), &mut units);
        }
    }
    let tid = |unit: &str| units.iter().position(|u| u == unit).unwrap_or(0);

    let mut out = String::with_capacity(events.len() * 96 + timeline.len() * 64 + 256);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };

    // Track names (metadata events) so the viewer labels each unit row.
    for (k, unit) in units.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {k}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(unit)
            ),
        );
    }

    // One 1-cycle duration event per executed instruction.
    for ev in events {
        push(
            &mut out,
            format!(
                "{{\"name\": \"{}\", \"cat\": \"instr\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": 1, \"pid\": 0, \"tid\": {}}}",
                escape(&ev.text),
                ev.cycle,
                tid(ev.unit)
            ),
        );
    }

    // Coalesced stall spans: one duration event per unit per
    // fast-forwarded span, covering all skipped cycles at once.
    for span in spans {
        let mut emit = |out: &mut String, unit: &str, o: Outcome| {
            if let Some(label) = outcome_label(o) {
                push(
                    out,
                    format!(
                        "{{\"name\": \"{}\", \"cat\": \"stall\", \"ph\": \"X\", \
                         \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}}}",
                        label,
                        span.start,
                        span.len,
                        tid(unit)
                    ),
                );
            }
        };
        emit(&mut out, "IEU", span.ieu);
        emit(&mut out, "FEU", span.feu);
        emit(&mut out, "VEU", span.veu);
        emit(&mut out, "IFU", span.ifu);
        for (i, &o) in span.scus.iter().enumerate() {
            emit(&mut out, &format!("SCU{i}"), o);
        }
    }

    // FIFO occupancy as counter tracks: one sample per change point.
    for s in timeline {
        push(
            &mut out,
            format!(
                "{{\"name\": \"{}\", \"ph\": \"C\", \"pid\": 0, \"ts\": {}, \
                 \"args\": {{\"depth\": {}}}}}",
                escape(s.fifo),
                s.cycle,
                s.depth
            ),
        );
    }

    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_sim::Stall;

    #[test]
    fn empty_trace_is_valid() {
        let t = chrome_trace(&[], &[], &[]);
        assert!(t.starts_with("{\"traceEvents\": ["));
        assert!(t.contains("\"displayTimeUnit\""));
    }

    #[test]
    fn events_and_counters_are_emitted() {
        let events = vec![
            TraceEvent {
                cycle: 3,
                unit: "IEU",
                text: "add r1, r2, r3".to_string(),
            },
            TraceEvent {
                cycle: 4,
                unit: "FEU",
                text: "fmul f0, f1, f2".to_string(),
            },
        ];
        let timeline = vec![DepthSample {
            cycle: 5,
            fifo: "ieu.in0",
            depth: 2,
        }];
        let t = chrome_trace(&events, &timeline, &[]);
        assert!(t.contains("\"add r1, r2, r3\""));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ph\": \"C\""));
        assert!(t.contains("\"ieu.in0\""));
        // IEU appeared first so it owns tid 0 and FEU tid 1.
        assert!(t.contains("\"tid\": 0"));
        assert!(t.contains("\"tid\": 1"));
        // Metadata names both tracks.
        assert!(t.contains("\"thread_name\""));
    }

    #[test]
    fn instruction_text_is_json_escaped() {
        let events = vec![TraceEvent {
            cycle: 0,
            unit: "IFU",
            text: "jump \"label\"\n".to_string(),
        }];
        let t = chrome_trace(&events, &[], &[]);
        assert!(t.contains("jump \\\"label\\\"\\n"));
    }

    #[test]
    fn fast_forward_spans_are_coalesced() {
        let spans = vec![FfSpan {
            start: 100,
            len: 23,
            ieu: Outcome::Stall(Stall::FifoEmpty),
            feu: Outcome::Idle,
            veu: Outcome::Idle,
            ifu: Outcome::Stall(Stall::IqFull),
            scus: vec![Outcome::Stall(Stall::PortBusy), Outcome::Idle],
        }];
        let t = chrome_trace(&[], &[], &spans);
        // One event per unit with the full span duration, not 23 events.
        assert!(t.contains("\"stall:fifo-empty\""));
        assert!(t.contains("\"stall:iq-full\""));
        assert!(t.contains("\"stall:port-busy\""));
        assert!(t.contains("\"idle\""));
        assert!(t.contains("\"ts\": 100, \"dur\": 23"));
        assert_eq!(t.matches("\"cat\": \"stall\"").count(), 6);
        // All unit tracks get registered and named.
        for name in ["IEU", "FEU", "VEU", "IFU", "SCU0", "SCU1"] {
            assert!(t.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
