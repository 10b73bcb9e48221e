//! Parsing the Prometheus text exposition served at `/api/metrics` (and
//! rendered in-process by `Registry::render_prometheus`), so work counts
//! can be read the same way from a child process and from the traced run.

/// One sample line: `name{label="value",...} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms, including the `_count`/`_sum` suffix).
    pub name: String,
    /// Labels in the order written.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// All samples of an exposition.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    /// Every sample line, in order.
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// Parses the text format. Comment and blank lines are skipped; a
    /// malformed sample line is an error.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            samples.push(parse_line(line)?);
        }
        Ok(Scrape { samples })
    }

    /// Sum of every series of `name` whose labels include all of
    /// `labels`. Zero when there is none.
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }
}

fn parse_line(line: &str) -> Result<Sample, String> {
    let bad = || format!("malformed sample line {line:?}");
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(bad)?;
    let name = line[..name_end].to_string();
    if name.is_empty() {
        return Err(bad());
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let mut chars = body.char_indices().peekable();
        loop {
            // Label name up to '=' (or the closing brace of an empty set).
            let start = chars.peek().map(|&(i, _)| i).ok_or_else(bad)?;
            if body[start..].starts_with('}') {
                rest = &body[start + 1..];
                break;
            }
            let eq = body[start..].find('=').ok_or_else(bad)? + start;
            let key = body[start..eq].trim().to_string();
            while chars.peek().is_some_and(|&(i, _)| i <= eq) {
                chars.next();
            }
            if chars.next().map(|(_, c)| c) != Some('"') {
                return Err(bad());
            }
            let mut value = String::new();
            loop {
                match chars.next().ok_or_else(bad)?.1 {
                    '\\' => match chars.next().ok_or_else(bad)?.1 {
                        'n' => value.push('\n'),
                        c => value.push(c),
                    },
                    '"' => break,
                    c => value.push(c),
                }
            }
            labels.push((key, value));
            match chars.next().ok_or_else(bad)? {
                (_, ',') => continue,
                (i, '}') => {
                    rest = &body[i + 1..];
                    break;
                }
                _ => return Err(bad()),
            }
        }
    }
    let value = rest.split_whitespace().next().ok_or_else(bad)?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().map_err(|_| bad())?,
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = r#"# HELP arp_serve_cache_hits_total Route-cache hits.
# TYPE arp_serve_cache_hits_total counter
arp_serve_cache_hits_total 42
arp_serve_shed_total{reason="admission_full"} 3
arp_serve_shed_total{reason="queue_full"} 4
arp_search_settled_nodes_total{technique="penalty"} 1500
arp_search_settled_nodes_total{technique="plateaus"} 700
arp_ch_customize_ms_sum 14.628524
arp_ch_customize_ms_bucket{le="+Inf"} 2

weird{msg="a \"quoted\", comma\\ and\nnewline",technique="x"} 1e3
"#;

    #[test]
    fn sums_by_name_and_label() {
        let s = Scrape::parse(TEXT).unwrap();
        assert_eq!(s.sum("arp_serve_cache_hits_total", &[]), 42.0);
        assert_eq!(s.sum("arp_serve_shed_total", &[]), 7.0);
        assert_eq!(
            s.sum("arp_serve_shed_total", &[("reason", "queue_full")]),
            4.0
        );
        assert_eq!(
            s.sum(
                "arp_search_settled_nodes_total",
                &[("technique", "plateaus")]
            ),
            700.0
        );
        assert_eq!(s.sum("arp_ch_customize_ms_sum", &[]), 14.628524);
        assert_eq!(s.sum("absent_total", &[]), 0.0);
        assert_eq!(s.sum("arp_ch_customize_ms_bucket", &[("le", "+Inf")]), 2.0);
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let s = Scrape::parse(TEXT).unwrap();
        let weird = s.samples.iter().find(|x| x.name == "weird").unwrap();
        assert_eq!(
            weird.labels,
            vec![
                (
                    "msg".to_string(),
                    "a \"quoted\", comma\\ and\nnewline".to_string()
                ),
                ("technique".to_string(), "x".to_string())
            ]
        );
        assert_eq!(weird.value, 1000.0);
    }

    #[test]
    fn parses_what_the_registry_renders() {
        let registry = arp_obs::Registry::new();
        registry
            .counter("bench_total", "help", &[("technique", "google_like")])
            .inc();
        let s = Scrape::parse(&registry.render_prometheus()).unwrap();
        assert_eq!(s.sum("bench_total", &[("technique", "google_like")]), 1.0);
    }

    #[test]
    fn malformed_lines_are_errors() {
        for line in [
            "no_value",
            "x{a=\"1\"",
            "x{a=1} 2",
            "x{a=\"1\" 2",
            "x notanumber",
            "{a=\"1\"} 2",
        ] {
            assert!(Scrape::parse(line).is_err(), "{line:?}");
        }
        assert!(Scrape::parse("x{} 2").is_ok());
    }
}
