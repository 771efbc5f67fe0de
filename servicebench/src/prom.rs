//! `GET /metrics` scrapes and their deltas.

use std::collections::HashMap;
use std::net::SocketAddr;

/// One scrape: sample key (`name{labels}` exactly as exposed) → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Scrapes `addr`.
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        Ok(Scrape::parse(&crate::client::get(addr, "/metrics")?))
    }

    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (key, value) = l.rsplit_once(' ')?;
                    Some((key.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// The value of `key`, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `after − before` for `key`.
    pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
        after.get(key) - before.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labeled_and_plain_samples() {
        let s = Scrape::parse(
            "# HELP x y\n# TYPE x counter\ncqp_requests_total{endpoint=\"personalize\",outcome=\"ok\"} 12\ncqp_wal_appends_total 3\n",
        );
        assert_eq!(
            s.get("cqp_requests_total{endpoint=\"personalize\",outcome=\"ok\"}"),
            12.0
        );
        assert_eq!(s.get("cqp_wal_appends_total"), 3.0);
        assert_eq!(s.get("absent"), 0.0);
    }
}
