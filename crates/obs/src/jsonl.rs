//! Line-delimited JSON event export.
//!
//! One JSON object per event, tagged with `"kind"`, timestamps in
//! nanoseconds of simulated time. Meant for `jq`/pandas-style ad-hoc
//! analysis where the Chrome trace format is too view-oriented.

use std::io::{self, Write};

use crate::event::{Event, EventKind};

fn payload(kind: &EventKind) -> String {
    match kind {
        EventKind::Request {
            id,
            dir,
            bytes,
            lba,
        } => format!(
            "\"kind\":\"request\",\"id\":{id},\"dir\":\"{}\",\"bytes\":{bytes},\"lba\":{lba}",
            dir.code()
        ),
        EventKind::QueueWait { id } => format!("\"kind\":\"queue_wait\",\"id\":{id}"),
        EventKind::Wakeup { id } => format!("\"kind\":\"wakeup\",\"id\":{id}"),
        EventKind::Split { id, chunks } => {
            format!("\"kind\":\"split\",\"id\":{id},\"chunks\":{chunks}")
        }
        EventKind::FlashOp {
            request,
            op,
            channel,
            die,
            bytes,
            gc,
        } => {
            let req = match request {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            };
            format!(
                "\"kind\":\"flash_op\",\"request\":{req},\"op\":\"{}\",\"channel\":{channel},\"die\":{die},\"bytes\":{bytes},\"gc\":{gc}",
                op.name()
            )
        }
        EventKind::GcPass { ops, idle } => {
            format!("\"kind\":\"gc_pass\",\"ops\":{ops},\"idle\":{idle}")
        }
        EventKind::CacheAck { id, kind } => {
            format!(
                "\"kind\":\"cache_ack\",\"id\":{id},\"ack\":\"{}\"",
                kind.name()
            )
        }
        EventKind::Command { members, bytes } => {
            format!("\"kind\":\"command\",\"members\":{members},\"bytes\":{bytes}")
        }
        EventKind::PowerSleep => "\"kind\":\"power_sleep\"".to_string(),
        EventKind::PlaneQueueDepth { plane, depth } => {
            format!("\"kind\":\"plane_queue_depth\",\"plane\":{plane},\"depth\":{depth}")
        }
        EventKind::PlaneGarbageRatio { plane, ratio } => {
            format!(
                "\"kind\":\"plane_garbage_ratio\",\"plane\":{plane},\"ratio\":{}",
                crate::json::number(*ratio)
            )
        }
    }
}

/// Writes a single event as one JSON line. This is the streaming unit:
/// [`crate::stream::JsonlStreamSink`] calls it per event as the simulation
/// emits, so a long replay never buffers its event stream in memory.
pub fn write_jsonl_event<W: Write>(event: &Event, w: &mut W) -> io::Result<()> {
    writeln!(
        w,
        "{{\"ts_ns\":{},\"dur_ns\":{},{}}}",
        event.start.as_ns(),
        event.dur.as_ns(),
        payload(&event.kind)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use hps_core::{SimDuration, SimTime};

    #[test]
    fn each_line_parses_and_is_tagged() {
        let events = vec![
            Event::span(
                SimTime::from_us(1),
                SimDuration::from_us(2),
                EventKind::GcPass {
                    ops: 3,
                    idle: false,
                },
            ),
            Event::instant(
                SimTime::from_us(4),
                EventKind::Command {
                    members: 2,
                    bytes: 8192,
                },
            ),
        ];
        let mut out = Vec::new();
        for event in &events {
            write_jsonl_event(event, &mut out).unwrap();
        }
        let text = std::str::from_utf8(&out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("kind").unwrap().as_str(), Some("gc_pass"));
        assert_eq!(first.get("ts_ns").unwrap().as_f64(), Some(1000.0));
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("kind").unwrap().as_str(), Some("command"));
        assert_eq!(second.get("dur_ns").unwrap().as_f64(), Some(0.0));
    }
}
