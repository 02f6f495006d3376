//! FNV-1a digests of simulation outputs, shared by the golden-digest
//! tests.  Include with `#[path = ".../tests/support/fnv.rs"] mod fnv;`.

#![allow(dead_code)]

use flowcon_metrics::sketch::QuantileSketch;
use flowcon_metrics::summary::{CompletionRecord, CompletionStats};
use flowcon_metrics::timeseries::MultiSeries;
use flowcon_sim::time::SimTime;

/// FNV-1a over the little-endian bytes of a stream of words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn label(&mut self, label: &str) {
        self.word(label.len() as u64);
        for b in label.bytes() {
            self.word(u64::from(b));
        }
    }

    pub fn time(&mut self, t: SimTime) {
        self.word(t.as_micros());
    }

    pub fn records(&mut self, records: &[CompletionRecord]) {
        self.word(records.len() as u64);
        for c in records {
            self.label(&c.label);
            self.time(c.arrival);
            self.time(c.finished);
            self.word(c.exit_code as u64);
        }
    }

    pub fn series(&mut self, all: &MultiSeries) {
        self.word(all.len() as u64);
        for (label, series) in all.iter() {
            self.label(label);
            self.word(series.len() as u64);
            for (t, v) in series.points() {
                self.f64(t);
                self.f64(v);
            }
        }
    }

    pub fn stats(&mut self, stats: &CompletionStats) {
        self.word(stats.len() as u64);
        for c in &stats.completions {
            self.time(c.arrival);
            self.time(c.finished);
            self.word(c.exit_code as u64);
        }
        self.word(stats.algorithm_runs);
        self.word(stats.update_calls);
    }

    pub fn sketch(&mut self, sketch: &QuantileSketch) {
        self.word(sketch.count());
        for v in [sketch.min(), sketch.max()] {
            self.f64(v.unwrap_or(f64::NAN));
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            self.f64(sketch.quantile(q).unwrap_or(f64::NAN));
        }
    }
}
