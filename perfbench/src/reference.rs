//! Reference outputs held by the benchmark: for every shard of every
//! workload, the deterministic metrics the sweep must reproduce bit for
//! bit, and the work the shard does.

use crate::replay::{ShardReplay, Work};
use std::collections::BTreeMap;
use th_sweep::json::{self, Json};
use th_sweep::{ShardRecord, ShardStatus};

/// The shard metrics compared with the reference, bit for bit, where a
/// shard records them.
pub const CHECKED: [&str; 8] = [
    "ipc",
    "cycles",
    "committed",
    "total_w",
    "peak_k",
    "max_peak_k",
    "delivered_ginst",
    "rf_top_die",
];

/// What one shard must produce.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// The [`CHECKED`] metrics the shard records, with their values.
    pub check: Vec<(String, f64)>,
    /// The shard's work.
    pub work: Work,
}

/// Workload name → shard id → expected outputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference(pub BTreeMap<String, BTreeMap<String, Expected>>);

impl Reference {
    /// The reference compiled into the benchmark (`reference.json`).
    pub fn embedded() -> Result<Reference, String> {
        Reference::parse(include_str!("../reference.json"))
    }

    /// Parses the reference file format written by [`Reference::to_json`].
    pub fn parse(text: &str) -> Result<Reference, String> {
        let root = Json::parse(text)?;
        let mut out = BTreeMap::new();
        for (bench, shards) in root.as_obj().ok_or("reference: not an object")? {
            let mut by_id = BTreeMap::new();
            for (id, entry) in shards.as_obj().ok_or("reference: shards not an object")? {
                let bad = || format!("reference: malformed entry {id:?}");
                let check = entry
                    .get("check")
                    .and_then(Json::as_obj)
                    .ok_or_else(bad)?
                    .iter()
                    .map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)).ok_or_else(bad))
                    .collect::<Result<Vec<_>, _>>()?;
                let count = |key: &str| -> Result<u64, String> {
                    let v = entry
                        .get("work")
                        .and_then(|w| w.get(key))
                        .and_then(Json::as_f64);
                    v.map(|v| v as u64).ok_or_else(bad)
                };
                let work = Work {
                    committed: count("committed")?,
                    cycles: count("cycles")?,
                    intervals: count("intervals")?,
                };
                by_id.insert(id.clone(), Expected { check, work });
            }
            out.insert(bench.clone(), by_id);
        }
        Ok(Reference(out))
    }

    /// Renders the reference, one shard a line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (bi, (bench, shards)) in self.0.iter().enumerate() {
            out.push_str(&format!("  {}: {{\n", json::quote(bench)));
            for (si, (id, e)) in shards.iter().enumerate() {
                let check: Vec<(String, String)> = e
                    .check
                    .iter()
                    .map(|(k, v)| (k.clone(), json::num(*v)))
                    .collect();
                let work = json::obj(&[
                    ("committed".into(), e.work.committed.to_string()),
                    ("cycles".into(), e.work.cycles.to_string()),
                    ("intervals".into(), e.work.intervals.to_string()),
                ]);
                let entry =
                    json::obj(&[("check".into(), json::obj(&check)), ("work".into(), work)]);
                let comma = if si + 1 < shards.len() { "," } else { "" };
                out.push_str(&format!("    {}: {entry}{comma}\n", json::quote(id)));
            }
            out.push_str(if bi + 1 < self.0.len() {
                "  },\n"
            } else {
                "  }\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// The expected outputs of one shard of `bench`.
    pub fn expected(&self, bench: &str, id: &str) -> Option<&Expected> {
        self.0.get(bench)?.get(id)
    }

    /// Checks one sweep record against the reference: the shard finished,
    /// and each checked metric it records matches bit for bit.
    pub fn check_record(&self, bench: &str, record: &ShardRecord) -> Result<(), String> {
        if record.status != ShardStatus::Done {
            let why = record.error.as_deref().unwrap_or("no error recorded");
            return Err(format!("{}: degraded ({why})", record.id));
        }
        let expected = self
            .expected(bench, &record.id)
            .ok_or_else(|| format!("{}: no reference outputs", record.id))?;
        for (name, want) in &expected.check {
            match record.metric(name) {
                Some(got) if got.to_bits() == want.to_bits() => {}
                got => {
                    return Err(format!(
                        "{}: {name} = {got:?}, reference {want:?}",
                        record.id
                    ))
                }
            }
        }
        Ok(())
    }

    /// The reference entry a sweep record and its replay establish.
    pub fn entry(record: &ShardRecord, replay: &ShardReplay) -> Expected {
        let check = record
            .metrics
            .iter()
            .filter(|(k, _)| CHECKED.contains(&k.as_str()))
            .cloned()
            .collect();
        Expected {
            check,
            work: replay.work,
        }
    }
}

/// Checks that a replay reproduced a sweep record: every metric the
/// replay computes is recorded with the same bits.
pub fn check_replay(record: &ShardRecord, replay: &ShardReplay) -> Result<(), String> {
    if record.id != replay.id {
        return Err(format!(
            "replay order: {} against record {}",
            replay.id, record.id
        ));
    }
    for (name, got) in &replay.metrics {
        match record.metric(name) {
            Some(want) if want.to_bits() == got.to_bits() => {}
            want => {
                return Err(format!(
                    "{}: replayed {name} = {got:?}, sweep {want:?}",
                    record.id
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_bit_for_bit() {
        let r = Reference::embedded().expect("embedded reference parses");
        let again = Reference::parse(&r.to_json()).expect("rendered reference parses");
        assert_eq!(r.0.len(), again.0.len());
        for (bench, shards) in &r.0 {
            for (id, e) in shards {
                let f = again.expected(bench, id).expect("shard survives");
                assert_eq!(e.work, f.work);
                for ((ka, va), (kb, vb)) in e.check.iter().zip(&f.check) {
                    assert_eq!((ka, va.to_bits()), (kb, vb.to_bits()), "{bench} {id}");
                }
            }
        }
    }

    #[test]
    fn a_one_ulp_change_is_a_mismatch() {
        let r = Reference::embedded().unwrap();
        let (bench, shards) = r.0.iter().next().expect("reference has a workload");
        let (id, e) = shards.iter().next().expect("workload has a shard");
        let mut record = ShardRecord {
            id: id.clone(),
            status: ShardStatus::Done,
            attempts: 1,
            wall_s: 0.0,
            error: None,
            metrics: e.check.clone(),
            timings: Vec::new(),
            resumed: false,
        };
        assert_eq!(r.check_record(bench, &record), Ok(()));
        let v = &mut record.metrics[0].1;
        *v = f64::from_bits(v.to_bits() + 1);
        assert!(r.check_record(bench, &record).is_err());
        record.metrics.clear();
        assert!(
            r.check_record(bench, &record).is_err(),
            "a missing metric fails"
        );
    }
}
