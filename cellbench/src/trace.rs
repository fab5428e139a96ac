//! Spans recorded from the benchmark's own calls into each layer, and
//! deltas of the cell's `vm-obs` instruments.
//!
//! A span has a name, a start and end (µs since the run's epoch), an
//! optional parent and a request id (the benchmark's op index). Spans
//! stay in memory and are written out once the run ends. A layer's
//! self time is its span's length minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use vm_obs::Snapshot;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    pub req: u64,
}

/// One thread's span log. Disabled tracers record nothing and cost one
/// branch per call.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, req, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Append another thread's log (parent indices are rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// `(count, total ms, self ms)` per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_us - s.start_us) as f64 / 1e3;
            let own = (s.end_us - s.start_us).saturating_sub(child_us[i]) as f64 / 1e3;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_us, s.end_us, s.req
            )?;
        }
        out.flush()
    }
}

/// What one registry gained over the measured slices: the sum of the
/// differences between the snapshots taken at each slice's start and
/// end, so the quiet reward rounds between slices are left out.
#[derive(Default)]
pub struct ObsDelta {
    slices: Vec<(Snapshot, Snapshot)>,
}

impl ObsDelta {
    /// The difference over one span of time.
    pub fn new(before: Snapshot, after: Snapshot) -> ObsDelta {
        ObsDelta {
            slices: vec![(before, after)],
        }
    }

    pub fn add(&mut self, before: Snapshot, after: Snapshot) {
        self.slices.push((before, after));
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.slices
            .iter()
            .map(|(b, a)| {
                let a = a.counter(name).unwrap_or(0);
                a.saturating_sub(b.counter(name).unwrap_or(0))
            })
            .sum()
    }

    /// `(Δcount, Δsum)` of a histogram.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        let get = |s: &Snapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        self.slices.iter().fold((0, 0), |(c, s), (b, a)| {
            let (c0, s0) = get(b);
            let (c1, s1) = get(a);
            (c + c1.saturating_sub(c0), s + s1.saturating_sub(s0))
        })
    }

    /// Mean of the samples a histogram gained (0 when it gained none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let (c, s) = self.hist(name);
        if c == 0 {
            0.0
        } else {
            s as f64 / c as f64
        }
    }
}
