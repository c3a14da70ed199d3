//! Output checks. Each takes the raw reply text the daemons sent and
//! the benchmark's own expectation, and names the first disagreement.
//! A failed check fails the run.

use serde_json::Value;

/// The raw text of a scalar field (`"key":<value>`) in a JSON reply,
/// exactly as the daemon wrote it. Used where a check compares bits,
/// not parsed values.
pub fn raw_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    let rest = &text[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("unparseable reply {text:?}: {e}"))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v[key].as_f64()
}

/// submit-open: ids `0..sent` are each answered exactly once with
/// `allocated`, and the server counted exactly `sent` submits. Returns
/// the day each submit was solved on, by id.
pub fn submits_answered_once(
    sent: usize,
    replies: &[String],
    server_submits: f64,
) -> Result<Vec<u32>, String> {
    let mut day_of: Vec<Option<u32>> = vec![None; sent];
    for text in replies {
        let v = parse(text)?;
        if v["type"].as_str() != Some("allocated") {
            return Err(format!("submit answered with {text:?}"));
        }
        let id = num(&v, "id").ok_or("allocated reply without id")? as usize;
        let day = num(&v, "day").ok_or("allocated reply without day")? as u32;
        match day_of.get_mut(id) {
            None => return Err(format!("reply for unknown submit id {id}")),
            Some(Some(_)) => return Err(format!("submit {id} answered twice")),
            Some(slot) => *slot = Some(day),
        }
    }
    if let Some(id) = day_of.iter().position(Option::is_none) {
        return Err(format!("submit {id} never answered"));
    }
    if server_submits != sent as f64 {
        return Err(format!(
            "server counted {server_submits} submits, {sent} sent"
        ));
    }
    Ok(day_of.into_iter().map(|d| d.expect("checked")).collect())
}

/// day-closed: each served `day_closed` record is byte-identical to the
/// in-process replay's record of the same day (serialized the way the
/// daemon serializes it), and the served total regret equals the
/// replay's total bit for bit.
pub fn days_match_replay(
    served_days: &[String],
    replayed_days: &[String],
    served_regret: &str,
    replayed_regret: f64,
) -> Result<(), String> {
    if served_days.len() != replayed_days.len() {
        return Err(format!(
            "{} days served, {} replayed",
            served_days.len(),
            replayed_days.len()
        ));
    }
    for (day, (served, replayed)) in served_days.iter().zip(replayed_days).enumerate() {
        let record = served
            .find("\"record\":")
            .map(|i| &served[i + "\"record\":".len()..served.len() - 1])
            .ok_or_else(|| format!("day {day}: not a day_closed reply: {served:?}"))?;
        if record != replayed {
            return Err(format!(
                "day {day}: served record {record} != replayed {replayed}"
            ));
        }
    }
    let replayed_text = serde_json::to_string(&replayed_regret).expect("stub never fails");
    if served_regret != replayed_text {
        return Err(format!(
            "served regret_total {served_regret} != replayed {replayed_text}"
        ));
    }
    Ok(())
}

/// ingest-replicated: at the converged epoch the follower's coverage
/// replies equal the leader's byte for byte, and the leader's influence
/// for each set equals the offline full-city build's.
pub fn replicas_agree(
    leader: &[String],
    follower: &[String],
    offline_influence: &[u64],
) -> Result<(), String> {
    if leader.len() != follower.len() || leader.len() != offline_influence.len() {
        return Err("coverage probe counts differ".into());
    }
    for (i, ((l, f), &want)) in leader
        .iter()
        .zip(follower)
        .zip(offline_influence)
        .enumerate()
    {
        if l != f {
            return Err(format!("set {i}: leader {l:?} != follower {f:?}"));
        }
        let v = parse(l)?;
        if v["type"].as_str() != Some("coverage") {
            return Err(format!("set {i}: leader answered {l:?}"));
        }
        let got = num(&v, "influence").ok_or("coverage without influence")?;
        if got != want as f64 {
            return Err(format!("set {i}: leader influence {got} != offline {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocated(id: usize, day: u32) -> String {
        format!("{{\"type\":\"allocated\",\"id\":{id},\"day\":{day},\"influence\":5}}")
    }

    #[test]
    fn raw_field_returns_the_written_text() {
        let t = r#"{"a":1,"regret":12.500000000000002,"z":{"regret":3}}"#;
        assert_eq!(raw_field(t, "regret"), Some("12.500000000000002"));
        assert_eq!(raw_field(r#"{"x":7}"#, "x"), Some("7"));
        assert_eq!(raw_field(t, "missing"), None);
    }

    #[test]
    fn submit_check_accepts_a_clean_run_and_rejects_tampering() {
        let good: Vec<String> = vec![allocated(1, 0), allocated(0, 0), allocated(2, 1)];
        assert_eq!(submits_answered_once(3, &good, 3.0), Ok(vec![0, 0, 1]));

        let mut dup = good.clone();
        dup[2] = allocated(1, 1);
        assert!(submits_answered_once(3, &dup, 3.0)
            .unwrap_err()
            .contains("twice"));
        assert!(submits_answered_once(3, &good[..2], 3.0)
            .unwrap_err()
            .contains("never answered"));
        let mut refused = good.clone();
        refused[0] = r#"{"type":"error","id":1,"message":"x"}"#.into();
        assert!(submits_answered_once(3, &refused, 3.0).is_err());
        let mut stranger = good.clone();
        stranger[0] = allocated(9, 0);
        assert!(submits_answered_once(3, &stranger, 3.0).is_err());
        assert!(submits_answered_once(3, &good, 4.0).is_err());
    }

    #[test]
    fn day_check_is_bit_exact() {
        let served = vec![
            r#"{"type":"day_closed","id":16,"batch_size":16,"record":{"day":0,"regret":1.5}}"#
                .to_string(),
        ];
        let replayed = vec![r#"{"day":0,"regret":1.5}"#.to_string()];
        assert_eq!(days_match_replay(&served, &replayed, "1.5", 1.5), Ok(()));

        let tampered = vec![served[0].replace("1.5", "1.5000000000000002")];
        assert!(days_match_replay(&tampered, &replayed, "1.5", 1.5).is_err());
        assert!(days_match_replay(&served, &replayed, "1.5000000000000002", 1.5).is_err());
        assert!(days_match_replay(&served, &[], "1.5", 1.5).is_err());
        let wrong_type = vec![r#"{"type":"error","id":16}"#.to_string()];
        assert!(days_match_replay(&wrong_type, &replayed, "1.5", 1.5).is_err());
    }

    #[test]
    fn replica_check_wants_identical_bytes_and_the_offline_answer() {
        let l = vec![r#"{"type":"coverage","id":1,"influence":40,"free_total":300}"#.to_string()];
        assert_eq!(replicas_agree(&l, &l, &[40]), Ok(()));

        let f = vec![l[0].replace("300", "299")];
        assert!(replicas_agree(&l, &f, &[40]).is_err());
        assert!(replicas_agree(&l, &l, &[41]).is_err());
        let refused = vec![r#"{"type":"error","id":1,"message":"x"}"#.to_string()];
        assert!(replicas_agree(&refused, &refused, &[40]).is_err());
    }
}
