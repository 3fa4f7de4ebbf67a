//! The committed model outputs.
//!
//! Simulated-time results (`model.*`) are fixed by the seed, not by the
//! host, so a change that only makes the simulator faster must leave them
//! as `golden.json` has them. A mismatch is counted and printed by name;
//! it does not fail a unit, because behaviour changes are judged by the
//! repository's own byte-equality gates, not by this file.

use pilgrim_sim::Json;

const GOLDEN: &str = include_str!("../golden.json");

/// `name: expected N, got M` for every model output of a run at the
/// golden seed that differs from the file. Empty at any other seed.
pub fn mismatches(seed: u64, model: &[(&'static str, i128)]) -> Vec<String> {
    let Ok(doc) = Json::parse(GOLDEN) else {
        return vec!["golden.json does not parse".into()];
    };
    if doc.get("seed").and_then(Json::as_u64) != Some(seed) {
        return Vec::new();
    }
    let expected = |name: &str| match doc.get("model").and_then(|m| m.get(name)) {
        Some(Json::Int(i)) => Some(*i),
        _ => None,
    };
    model
        .iter()
        .filter_map(|(name, got)| match expected(name) {
            Some(want) if want == *got => None,
            Some(want) => Some(format!("{name}: expected {want}, got {got}")),
            None => Some(format!("{name}: not in golden.json, got {got}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn golden_file_covers_exactly_the_model_metrics() {
        let doc = Json::parse(GOLDEN).expect("golden.json parses");
        assert_eq!(
            doc.get("seed").and_then(Json::as_u64),
            Some(crate::DEFAULT_SEED)
        );
        let mut listed: Vec<&str> = doc
            .get("model")
            .and_then(Json::as_object)
            .expect("`model` is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut defined: Vec<&str> = PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| n.starts_with("model.") && *n != "model.golden_mismatches")
            .collect();
        listed.sort_unstable();
        defined.sort_unstable();
        assert_eq!(listed, defined);
    }

    #[test]
    fn a_moved_model_output_is_named() {
        let seed = crate::DEFAULT_SEED;
        assert!(mismatches(seed + 1, &[("model.null_rpc_us", -1)]).is_empty());
        let found = mismatches(seed, &[("model.null_rpc_us", -1), ("model.nope", 3)]);
        assert_eq!(found.len(), 2);
        assert!(
            found[0].starts_with("model.null_rpc_us: expected "),
            "{found:?}"
        );
        assert!(
            found[1].starts_with("model.nope: not in golden.json"),
            "{found:?}"
        );
    }
}
