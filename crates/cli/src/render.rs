//! Plain-text rendering of configurations and round records.

use dispersion_engine::{Configuration, RoundRecord};

/// One-line occupancy strip: `.` empty, `1`–`9` robot counts, `+` for ≥ 10.
pub fn occupancy_strip(config: &Configuration) -> String {
    let mut counts = vec![0usize; config.node_count()];
    for (_, v) in config.iter() {
        counts[v.index()] += 1;
    }
    counts
        .iter()
        .map(|&c| match c {
            0 => '.',
            1..=9 => char::from_digit(c as u32, 10).expect("single digit"),
            _ => '+',
        })
        .collect()
}

/// One-line round summary.
pub fn round_line(rec: &RoundRecord, config: &Configuration) -> String {
    let crashes = if rec.crashed.is_empty() {
        String::new()
    } else {
        format!(
            "  crashed: {}",
            rec.crashed
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    format!(
        "round {:>4}  [{}]  occupied {:>3} (+{})  moves {:>3}{}",
        rec.round,
        occupancy_strip(config),
        rec.occupied_after,
        rec.newly_occupied,
        rec.moves,
        crashes
    )
}

/// Hand-rolled JSON document for a run outcome (stable shape for
/// scripting; no external JSON dependency needed for flat data).
pub fn outcome_json(outcome: &dispersion_engine::SimOutcome, network: &str) -> String {
    let placements: Vec<String> = outcome
        .final_config
        .iter()
        .map(|(r, v)| format!("{{\"robot\":{},\"node\":{}}}", r.get(), v.index()))
        .collect();
    let rounds: Vec<String> = outcome
        .trace
        .records
        .iter()
        .map(|rec| {
            format!(
                "{{\"round\":{},\"occupied\":{},\"new\":{},\"moves\":{},\"crashes\":{}}}",
                rec.round,
                rec.occupied_after,
                rec.newly_occupied,
                rec.moves,
                rec.crashed.len()
            )
        })
        .collect();
    format!(
        "{{\"network\":\"{}\",\"k\":{},\"dispersed\":{},\"rounds\":{},\"crashes\":{},\"memory_bits\":{},\"placements\":[{}],\"trace\":[{}]}}",
        network.escape_default(),
        outcome.k,
        outcome.dispersed,
        outcome.rounds,
        outcome.crashes,
        outcome.max_memory_bits(),
        placements.join(","),
        rounds.join(",")
    )
}

/// Final placement listing.
pub fn placements(config: &Configuration) -> String {
    config
        .iter()
        .map(|(r, v)| format!("  {r} -> {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dispersion_engine::RobotId;
    use dispersion_graph::NodeId;

    #[test]
    fn strip_shows_counts() {
        let c = Configuration::from_pairs(
            5,
            [
                (RobotId::new(1), NodeId::new(0)),
                (RobotId::new(2), NodeId::new(0)),
                (RobotId::new(3), NodeId::new(3)),
            ],
        );
        assert_eq!(occupancy_strip(&c), "2..1.");
    }

    #[test]
    fn strip_saturates_at_ten() {
        let c =
            Configuration::from_pairs(2, (1..=11u32).map(|i| (RobotId::new(i), NodeId::new(0))));
        assert_eq!(occupancy_strip(&c), "+.");
    }

    #[test]
    fn round_line_mentions_crashes() {
        let c = Configuration::from_pairs(3, [(RobotId::new(1), NodeId::new(1))]);
        let rec = RoundRecord {
            round: 2,
            occupied_before: 1,
            occupied_after: 1,
            newly_occupied: 0,
            moves: 0,
            crashed: vec![RobotId::new(4)],
            max_memory_bits: 3,
        };
        let line = round_line(&rec, &c);
        assert!(line.contains("crashed: r4"));
        assert!(line.contains("[.1.]"));
    }

    #[test]
    fn outcome_json_is_well_formed() {
        use dispersion_engine::{ExecutionTrace, SimOutcome};
        let outcome = SimOutcome {
            dispersed: true,
            rounds: 2,
            k: 2,
            crashes: 0,
            final_config: Configuration::from_pairs(
                3,
                [
                    (RobotId::new(1), NodeId::new(0)),
                    (RobotId::new(2), NodeId::new(2)),
                ],
            ),
            trace: ExecutionTrace {
                records: vec![RoundRecord {
                    round: 0,
                    occupied_before: 1,
                    occupied_after: 2,
                    newly_occupied: 1,
                    moves: 1,
                    crashed: vec![],
                    max_memory_bits: 1,
                }],
                graphs: None,
            },
        };
        let json = outcome_json(&outcome, "static");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dispersed\":true"));
        assert!(json.contains("\"rounds\":2"));
        assert!(json.contains("\"robot\":1,\"node\":0"));
        assert!(json.contains("\"trace\":[{\"round\":0"));
        // Balanced braces/brackets (cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn placements_lists_all() {
        let c = Configuration::from_pairs(
            4,
            [
                (RobotId::new(2), NodeId::new(3)),
                (RobotId::new(1), NodeId::new(0)),
            ],
        );
        let p = placements(&c);
        assert!(p.contains("r1 -> n0"));
        assert!(p.contains("r2 -> n3"));
    }
}
