//! In-memory spans around the benchmark's calls into each pak layer.
//!
//! A span records its layer, request, parent, start and duration, and its
//! *self* time and allocations: what its interval holds minus what its
//! child spans cover. Spans stay in memory and are written out as TSV
//! once the run ends. A tracer that is off records nothing.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::report::{percentile, Metrics};

/// The layers the benchmark times. `Request` is the root span of one
/// request; its self time is the benchmark's own (unattributed) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    DslParse,
    DslCompile,
    LogicFormulaParse,
    ProtocolUnfold,
    ProtocolExtend,
    EngineCache,
    EngineEval,
    CoreAnalysis,
    SimFallback,
}

/// Every named layer, in report order.
pub const LAYERS: [Layer; 9] = [
    Layer::DslParse,
    Layer::DslCompile,
    Layer::LogicFormulaParse,
    Layer::ProtocolUnfold,
    Layer::ProtocolExtend,
    Layer::EngineCache,
    Layer::EngineEval,
    Layer::CoreAnalysis,
    Layer::SimFallback,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::DslParse => "dsl.parse",
            Layer::DslCompile => "dsl.compile",
            Layer::LogicFormulaParse => "logic.formula_parse",
            Layer::ProtocolUnfold => "protocol.unfold",
            Layer::ProtocolExtend => "protocol.extend",
            Layer::EngineCache => "engine.cache",
            Layer::EngineEval => "engine.eval",
            Layer::CoreAnalysis => "core.analysis",
            Layer::SimFallback => "sim.fallback",
        }
    }
}

struct Open {
    id: u32,
    start: Instant,
    allocs: (u64, u64),
    child_ns: u64,
    child_allocs: (u64, u64),
}

struct Span {
    id: u32,
    parent: Option<u32>,
    layer: Layer,
    req: u32,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
    self_allocs: u64,
    self_bytes: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u32,
    req: u32,
    open: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 0,
            req: 0,
            open: Vec::new(),
            // Reserved up front, so the tracer's own growth rarely lands
            // in a request's allocation counts.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Marks the request the following spans belong to.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    /// Opens a span whose layer is named when it ends.
    pub fn begin(&mut self) {
        if !self.on {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            start: Instant::now(),
            allocs: alloc::counters(),
            child_ns: 0,
            child_allocs: (0, 0),
        });
    }

    /// Closes the innermost open span as `layer`.
    pub fn end(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        let (count, bytes) = alloc::counters();
        let open = self.open.pop().expect("end matches a begin");
        let dur_ns = (now - open.start).as_nanos() as u64;
        let allocs = (count - open.allocs.0, bytes - open.allocs.1);
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur_ns;
            p.child_allocs.0 += allocs.0;
            p.child_allocs.1 += allocs.1;
            p.id
        });
        self.spans.push(Span {
            id: open.id,
            parent,
            layer,
            req: self.req,
            start_ns: (open.start - self.origin).as_nanos() as u64,
            dur_ns,
            self_ns: dur_ns.saturating_sub(open.child_ns),
            self_allocs: allocs.0 - open.child_allocs.0,
            self_bytes: allocs.1 - open.child_allocs.1,
        });
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.begin();
        let out = f();
        self.end(layer);
        out
    }

    /// How many spans of these layers were recorded for requests
    /// `first..`.
    pub fn calls_from(&self, layers: &[Layer], first: usize) -> usize {
        self.spans
            .iter()
            .filter(|s| s.req as usize >= first && layers.contains(&s.layer))
            .count()
    }

    /// Per-layer metrics over a traced pass of `requests` requests that
    /// took `wall_ns`: `<layer>.p50_us`, `<layer>.share`,
    /// `alloc.<layer>.{count,bytes}_per_req`, and
    /// `bench.unattributed_share`.
    pub fn summarize(&self, m: &mut Metrics, requests: usize, wall_ns: u64) {
        let per_req = requests.max(1) as f64;
        let wall = wall_ns.max(1) as f64;
        let mut attributed = 0u64;
        for layer in LAYERS {
            let mut durs = Vec::new();
            let (mut self_ns, mut allocs, mut bytes) = (0u64, 0u64, 0u64);
            for s in self.spans.iter().filter(|s| s.layer == layer) {
                durs.push(s.dur_ns as f64 / 1e3);
                self_ns += s.self_ns;
                allocs += s.self_allocs;
                bytes += s.self_bytes;
            }
            attributed += self_ns;
            let name = layer.name();
            m.push(format!("{name}.p50_us"), percentile(&mut durs, 0.5), "us");
            m.push(format!("{name}.share"), self_ns as f64 / wall, "ratio");
            m.push(
                format!("alloc.{name}.count_per_req"),
                allocs as f64 / per_req,
                "count",
            );
            m.push(
                format!("alloc.{name}.bytes_per_req"),
                bytes as f64 / per_req,
                "bytes",
            );
        }
        m.push(
            "bench.unattributed_share",
            1.0 - attributed as f64 / wall,
            "ratio",
        );
    }

    /// Writes every span as one TSV line under `dir`.
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(fs::File::create(dir.join(file))?);
        writeln!(
            out,
            "id\tparent\treq\tlayer\tstart_ns\tdur_ns\tself_ns\tself_allocs\tself_bytes"
        )?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.req,
                s.layer.name(),
                s.start_ns,
                s.dur_ns,
                s.self_ns,
                s.self_allocs,
                s.self_bytes
            )?;
        }
        out.flush()
    }
}
