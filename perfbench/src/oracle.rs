//! The correctness oracle: a reference in-process `DemoApp` with the CH
//! tier off and the route cache disabled (so every answer is computed
//! from scratch by the plain Dijkstra substrate) replays the served
//! deltas in epoch order and must produce the served bodies byte for
//! byte, apart from the per-request `trace_id`.

use arp_demo::{DemoApp, QueryProcessor};
use arp_serve::ServeConfig;

use crate::load::{json_u64, TrafficResult};

/// One served answer to re-check.
pub struct Served<'a> {
    /// The request body sent.
    pub request: &'a str,
    /// The body served.
    pub body: &'a str,
    /// The epoch it claims.
    pub epoch: u64,
}

/// The reference application for a network.
pub fn reference(processor: QueryProcessor) -> DemoApp {
    DemoApp::with_config(
        processor,
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    )
}

/// Removes the `"trace_id":"…"` member (and the comma that joins it to
/// its neighbours) from a compact JSON object.
pub fn strip_trace_id(body: &str) -> String {
    const KEY: &str = "\"trace_id\":\"";
    let Some(start) = body.find(KEY) else {
        return body.to_string();
    };
    let value_end = match body[start + KEY.len()..].find('"') {
        Some(i) => start + KEY.len() + i + 1,
        None => return body.to_string(),
    };
    if body[value_end..].starts_with(',') {
        format!("{}{}", &body[..start], &body[value_end + 1..])
    } else if body[..start].ends_with(',') {
        format!("{}{}", &body[..start - 1], &body[value_end..])
    } else {
        format!("{}{}", &body[..start], &body[value_end..])
    }
}

/// Re-computes every sample on `reference` at its claimed epoch, applying
/// the served deltas (`traffic`, in any order) up to that epoch first.
/// Returns the number checked, or one message per mismatch.
pub fn verify(
    reference: &DemoApp,
    mut samples: Vec<Served<'_>>,
    traffic: &[TrafficResult],
) -> Result<usize, Vec<String>> {
    let mut deltas: Vec<(u64, &str)> = traffic
        .iter()
        .filter_map(|t| t.epoch.map(|e| (e, t.text.as_str())))
        .collect();
    deltas.sort_by_key(|&(e, _)| e);
    samples.sort_by_key(|s| s.epoch);
    let mut applied = deltas.iter().peekable();
    let mut errors = Vec::new();
    for sample in &samples {
        while let Some(&(epoch, text)) = applied.next_if(|(e, _)| *e <= sample.epoch) {
            let resp = reference.handle("POST", "/api/traffic", text);
            if resp.status != 200 || json_u64(&resp.body, "epoch") != Some(epoch) {
                errors.push(format!(
                    "reference could not replay the delta published as epoch {epoch}: {} {}",
                    resp.status, resp.body
                ));
                return Err(errors);
            }
        }
        if reference.processor.traffic().epoch() != sample.epoch {
            errors.push(format!(
                "served epoch {} was never published by a delta the client sent",
                sample.epoch
            ));
            continue;
        }
        let expected = reference.handle("POST", "/api/route", sample.request);
        let (want, got) = (strip_trace_id(&expected.body), strip_trace_id(sample.body));
        if expected.status != 200 || want != got {
            let at = want
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            errors.push(format!(
                "route {} at epoch {}: served body differs from the reference at byte {at} (reference status {})",
                sample.request, sample.epoch, expected.status
            ));
        }
    }
    if errors.is_empty() {
        Ok(samples.len())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Verdict;
    use arp_citygen::{City, Scale};

    #[test]
    fn trace_id_is_removed_wherever_it_sits() {
        assert_eq!(
            strip_trace_id(r#"{"a":1,"trace_id":"00aa","truncated":false}"#),
            r#"{"a":1,"truncated":false}"#
        );
        assert_eq!(strip_trace_id(r#"{"a":1,"trace_id":"00aa"}"#), r#"{"a":1}"#);
        assert_eq!(strip_trace_id(r#"{"trace_id":"00aa"}"#), r#"{}"#);
        assert_eq!(strip_trace_id(r#"{"a":1}"#), r#"{"a":1}"#);
    }

    fn processor() -> QueryProcessor {
        let g = arp_citygen::generate(City::Dhaka, Scale::Small, 42);
        QueryProcessor::new(g.name.clone(), g.network, 42)
    }

    #[test]
    fn served_answers_match_and_tampering_is_caught() {
        let served = DemoApp::new(processor().with_ch_index());
        let net = served.processor.network();
        let pairs = arp_bench::random_queries(net, 3, 60_000, 1_200_000, 5);
        let bodies: Vec<String> = pairs
            .iter()
            .map(|&(s, t, _)| crate::workload::route_body(net, s, t))
            .collect();
        let delta = "cat:primary*1.7";
        let before = served.handle("POST", "/api/route", &bodies[0]).body;
        let t = served.handle("POST", "/api/traffic", delta);
        let index = served.processor.ch_index().unwrap();
        assert!(index.wait_ready(1, std::time::Duration::from_secs(10)));
        let after = served.handle("POST", "/api/route", &bodies[1]).body;
        let traffic = vec![TrafficResult {
            latency_ms: 1.0,
            verdict: Verdict::Ok,
            epoch: json_u64(&t.body, "epoch"),
            text: delta.to_string(),
        }];
        let samples = || {
            vec![
                Served {
                    request: &bodies[1],
                    body: &after,
                    epoch: 1,
                },
                Served {
                    request: &bodies[0],
                    body: &before,
                    epoch: 0,
                },
            ]
        };
        assert_eq!(verify(&reference(processor()), samples(), &traffic), Ok(2));
        // The same answers without the delta replayed: epoch 1 is unknown.
        assert!(verify(&reference(processor()), samples(), &[]).is_err());
        // A body from another pair does not pass as this pair's answer.
        let swapped = vec![Served {
            request: &bodies[2],
            body: &before,
            epoch: 0,
        }];
        assert!(verify(&reference(processor()), swapped, &[]).is_err());
    }
}
