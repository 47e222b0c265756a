//! Span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a workspace crate, so every span sits on a layer boundary.
//! They are kept in a preallocated `Vec` and written out as JSON lines
//! when the run ends. A span's *self time* is its duration minus the
//! time its child spans cover.
//!
//! **Shadow spans** re-run collector and window internals that have no
//! public hook (delta diff and apply, snapshot decode, the merge probe,
//! the window fold) on the same bytes after a round closes. They
//! attribute time inside a blocking call such as `push_wire`, and are
//! excluded from the round wall clock and from the stage sum.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id, in opening order.
    pub id: u32,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u32,
    /// Layer-qualified name, e.g. `core.update_batch`.
    pub name: &'static str,
    /// The workload round the span belongs to.
    pub round: u32,
    /// Re-run after the round closed (not on the blocking path).
    pub shadow: bool,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Units of work the span did: raw elements, items or bytes,
    /// depending on the span name.
    pub work: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while active; every call is a no-op otherwise, so the
/// untraced run executes the same code.
pub struct Tracer {
    epoch: Instant,
    active: bool,
    shadow: bool,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An inactive tracer with room for 64k spans.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            active: false,
            shadow: false,
            round: 0,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
        }
    }

    /// Start round `round`, recording its spans only when `active`.
    pub fn set_round(&mut self, round: u32, active: bool) {
        assert!(self.open.is_empty(), "round changed inside an open span");
        self.round = round;
        self.active = active;
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.active {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            name,
            round: self.round,
            shadow: self.shadow,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
    }

    /// Close the innermost open span, recording `work` units; returns
    /// its duration in ns (0 while inactive).
    pub fn close(&mut self, work: u64) -> u64 {
        if !self.active {
            return 0;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("close() without a matching open()");
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span.work = work;
        span.dur_ns()
    }

    /// Run `f` as a shadow span; `work` maps its result to the span's
    /// work count. Returns the result and the span's duration in ns.
    pub fn shadow<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> (T, u64) {
        self.shadow = true;
        self.open(name);
        let out = std::hint::black_box(f());
        let ns = self.close(work(&out));
        self.shadow = false;
        (out, ns)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (same order as [`Tracer::spans`]).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"round\": {}, \"shadow\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
                s.id, s.parent, s.name, s.round, s.shadow, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_inactive_records_nothing() {
        let mut t = Tracer::new();
        t.open("off");
        assert_eq!(t.close(1), 0);
        t.set_round(1, true);
        t.open("outer");
        t.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.close(5);
        let outer = t.close(7);
        let own = t.self_ns();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 1);
        assert_eq!(own[0], outer - inner);
        assert_eq!(own[1], inner);
        let (_, ns) = t.shadow("shadow", || 3u64, |v| *v);
        assert!(t.spans()[2].shadow && t.spans()[2].work == 3 && ns == t.spans()[2].dur_ns());
    }
}
