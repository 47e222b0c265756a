//! The continuous-query surface: registered queries evaluated on every
//! bucket rollover, emitting typed [`Alert`]s.
//!
//! A query watches one estimator label of the window (`"entropy"`,
//! `"F0"`, …). Evaluation happens exactly once per closed epoch, on that
//! label's estimate over the live buckets *as of* that epoch (the value
//! the window fold would report, bit for bit) — so a query sees the same
//! deterministic sequence of values whether the window ran live, was
//! checkpointed and restored mid-stream, or was replayed from a
//! transcript. Query runtime state (previous value, change-point
//! history) is part of the window's wire snapshot for exactly that
//! reason.

use std::collections::VecDeque;

use sss_codec::{put_len, CodecError, Reader, WireCodec};

/// Upper bound on [`QueryKind::ChangePoint`]'s `history`: the rolling
/// buffer grows to `history` floats at runtime, so a sane fixed cap
/// keeps both registration and snapshot decode from accepting a
/// nonsense length.
pub const MAX_CHANGE_POINT_HISTORY: usize = 1 << 20;

/// What a registered query tests on each rollover.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryKind {
    /// Fire when the watched estimate crosses `level` (`above` picks
    /// the direction).
    Threshold {
        /// The fixed level to compare against.
        level: f64,
        /// `true`: fire on `value > level`; `false`: on `value < level`.
        above: bool,
    },
    /// Fire when the estimate moved by at least `rel_change` (relative)
    /// versus the previous window — i.e. versus the fold one rollover
    /// ago.
    DeltaVsPrev {
        /// Minimum relative change `|v − prev| / |prev|` that fires.
        rel_change: f64,
    },
    /// Fire when the estimate deviates from the rolling mean of the
    /// last `history` rollovers by more than `z` standard deviations —
    /// the classic lightweight change-point test.
    ChangePoint {
        /// Rolling history length (evaluation starts once it is full).
        history: usize,
        /// Deviation threshold in standard deviations.
        z: f64,
    },
}

impl QueryKind {
    fn validate(&self) -> Result<(), &'static str> {
        match self {
            QueryKind::Threshold { level, .. } if !level.is_finite() => {
                Err("threshold level must be finite")
            }
            QueryKind::DeltaVsPrev { rel_change } if rel_change.is_nan() || *rel_change <= 0.0 => {
                Err("delta rel_change must be > 0")
            }
            QueryKind::ChangePoint { history, z }
                if *history < 2
                    || *history > MAX_CHANGE_POINT_HISTORY
                    || z.is_nan()
                    || *z <= 0.0 =>
            {
                Err("change-point needs history in 2..=2^20 and z > 0")
            }
            _ => Ok(()),
        }
    }
}

/// A registered continuous query: a name, the estimator label it
/// watches, and the test to run on each rollover.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Caller-chosen name, echoed in alerts.
    pub name: String,
    /// The estimator label in the window's monitors (e.g. `"entropy"`).
    pub label: String,
    /// The rollover test.
    pub kind: QueryKind,
}

impl QuerySpec {
    /// A threshold query.
    pub fn threshold(name: &str, label: &str, level: f64, above: bool) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            kind: QueryKind::Threshold { level, above },
        }
    }

    /// A delta-vs-previous-window query.
    pub fn delta_vs_prev(name: &str, label: &str, rel_change: f64) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            kind: QueryKind::DeltaVsPrev { rel_change },
        }
    }

    /// A rolling-z-score change-point query.
    pub fn change_point(name: &str, label: &str, history: usize, z: f64) -> Self {
        Self {
            name: name.into(),
            label: label.into(),
            kind: QueryKind::ChangePoint { history, z },
        }
    }

    pub(crate) fn assert_valid(&self) {
        if let Err(what) = self.kind.validate() {
            panic!("query '{}': {what}", self.name);
        }
    }
}

/// Which test fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A [`QueryKind::Threshold`] crossing.
    Threshold,
    /// A [`QueryKind::DeltaVsPrev`] jump.
    Delta,
    /// A [`QueryKind::ChangePoint`] deviation.
    ChangePoint,
}

/// A typed alert emitted by a continuous query at a bucket rollover.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the query that fired.
    pub query: String,
    /// The estimator label it watches.
    pub label: String,
    /// The epoch whose rollover triggered the evaluation.
    pub epoch: u64,
    /// The watched estimate on the window fold at that rollover.
    pub value: f64,
    /// What the value was compared against: the threshold level, the
    /// previous window's value, or the rolling mean.
    pub baseline: f64,
    /// Which test fired.
    pub kind: AlertKind,
}

/// A registered query plus its rollover-to-rollover runtime state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Query {
    pub(crate) spec: QuerySpec,
    /// The watched value at the previous rollover.
    prev: Option<f64>,
    /// Rolling history for change-point queries (most recent last).
    history: VecDeque<f64>,
}

impl Query {
    pub(crate) fn new(spec: QuerySpec) -> Self {
        Self {
            spec,
            prev: None,
            history: VecDeque::new(),
        }
    }

    /// Evaluate the watched label's window estimate `value` at `epoch`'s
    /// rollover, update the runtime state, and return the alert if the
    /// test fired.
    pub(crate) fn observe(&mut self, epoch: u64, value: f64) -> Option<Alert> {
        let alert = |baseline: f64, kind: AlertKind| Alert {
            query: self.spec.name.clone(),
            label: self.spec.label.clone(),
            epoch,
            value,
            baseline,
            kind,
        };
        let fired = match &self.spec.kind {
            QueryKind::Threshold { level, above } => {
                let crossed = if *above {
                    value > *level
                } else {
                    value < *level
                };
                crossed.then(|| alert(*level, AlertKind::Threshold))
            }
            QueryKind::DeltaVsPrev { rel_change } => self.prev.and_then(|prev| {
                let denom = prev.abs().max(f64::MIN_POSITIVE);
                ((value - prev).abs() / denom >= *rel_change).then(|| alert(prev, AlertKind::Delta))
            }),
            QueryKind::ChangePoint { history, z } => {
                if self.history.len() < *history {
                    None
                } else {
                    let n = self.history.len() as f64;
                    let mean = self.history.iter().sum::<f64>() / n;
                    let var = self
                        .history
                        .iter()
                        .map(|v| (v - mean) * (v - mean))
                        .sum::<f64>()
                        / n;
                    // Floor the deviation scale so a perfectly flat
                    // history still admits a finite trigger band.
                    let sd = var.sqrt().max(1e-9 * mean.abs().max(1.0));
                    ((value - mean).abs() > *z * sd).then(|| alert(mean, AlertKind::ChangePoint))
                }
            }
        };
        self.prev = Some(value);
        if let QueryKind::ChangePoint { history, .. } = &self.spec.kind {
            self.history.push_back(value);
            while self.history.len() > *history {
                self.history.pop_front();
            }
        }
        fired
    }
}

impl WireCodec for QuerySpec {
    const WIRE_TAG: u16 = 0x0603;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.label.encode_into(out);
        match &self.kind {
            QueryKind::Threshold { level, above } => {
                out.push(0);
                level.encode_into(out);
                above.encode_into(out);
            }
            QueryKind::DeltaVsPrev { rel_change } => {
                out.push(1);
                rel_change.encode_into(out);
            }
            QueryKind::ChangePoint { history, z } => {
                out.push(2);
                put_len(out, *history);
                z.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let label = String::decode(r)?;
        let kind = match r.u8()? {
            0 => QueryKind::Threshold {
                level: r.f64()?,
                above: r.bool()?,
            },
            1 => QueryKind::DeltaVsPrev {
                rel_change: r.f64()?,
            },
            2 => {
                // `history` is a config scalar, not a count of elements
                // in this payload (the runtime buffer is serialized
                // separately in `Query`), so it must not go through
                // `len_prefix`'s remaining-bytes allocation guard —
                // validate() below bounds it instead.
                let history = r.u64()?;
                if history > MAX_CHANGE_POINT_HISTORY as u64 {
                    return Err(CodecError::Invalid {
                        what: "query parameters out of range",
                    });
                }
                QueryKind::ChangePoint {
                    history: history as usize,
                    z: r.f64()?,
                }
            }
            _ => {
                return Err(CodecError::Invalid {
                    what: "unknown query kind discriminant",
                })
            }
        };
        if kind.validate().is_err() {
            return Err(CodecError::Invalid {
                what: "query parameters out of range",
            });
        }
        Ok(QuerySpec { name, label, kind })
    }
}

impl WireCodec for Query {
    const WIRE_TAG: u16 = QuerySpec::WIRE_TAG;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.spec.encode_into(out);
        self.prev.encode_into(out);
        put_len(out, self.history.len());
        for v in &self.history {
            v.encode_into(out);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let spec = QuerySpec::decode(r)?;
        let prev = Option::<f64>::decode(r)?;
        let len = r.len_prefix(8)?;
        let cap = match &spec.kind {
            QueryKind::ChangePoint { history, .. } => *history,
            _ => 0,
        };
        if len > cap {
            return Err(CodecError::Invalid {
                what: "query history longer than its configured window",
            });
        }
        let mut history = VecDeque::with_capacity(len);
        for _ in 0..len {
            history.push_back(r.f64()?);
        }
        Ok(Query {
            spec,
            prev,
            history,
        })
    }
}

impl WireCodec for Alert {
    const WIRE_TAG: u16 = 0x0604;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.query.encode_into(out);
        self.label.encode_into(out);
        self.epoch.encode_into(out);
        self.value.encode_into(out);
        self.baseline.encode_into(out);
        out.push(match self.kind {
            AlertKind::Threshold => 0,
            AlertKind::Delta => 1,
            AlertKind::ChangePoint => 2,
        });
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(Alert {
            query: String::decode(r)?,
            label: String::decode(r)?,
            epoch: r.u64()?,
            value: r.f64()?,
            baseline: r.f64()?,
            kind: match r.u8()? {
                0 => AlertKind::Threshold,
                1 => AlertKind::Delta,
                2 => AlertKind::ChangePoint,
                _ => {
                    return Err(CodecError::Invalid {
                        what: "unknown alert kind discriminant",
                    })
                }
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_core::{MonitorBuilder, Statistic};

    /// The `F0` estimate of a monitor fed `items` — the value a window
    /// over them would hand [`Query::observe`].
    fn f0_of(items: &[u64]) -> f64 {
        let mut m = MonitorBuilder::with_seed(1.0, 5).f0(0.05).build();
        m.update_batch(items);
        m.estimate(Statistic::F0).expect("registered").value
    }

    #[test]
    fn threshold_fires_in_the_requested_direction() {
        let mut q = Query::new(QuerySpec::threshold("big", "F0", 50.0, true));
        let low = f0_of(&(0..10u64).collect::<Vec<_>>());
        let high = f0_of(&(0..100u64).collect::<Vec<_>>());
        assert!(q.observe(0, low).is_none());
        let a = q.observe(1, high).expect("fires above level");
        assert_eq!(a.kind, AlertKind::Threshold);
        assert_eq!(a.epoch, 1);
        assert_eq!(a.baseline, 50.0);
        assert!(a.value > 50.0);

        let mut below = Query::new(QuerySpec::threshold("small", "F0", 50.0, false));
        assert!(below.observe(0, high).is_none());
        assert!(below.observe(1, low).is_some());
    }

    #[test]
    fn delta_needs_a_previous_window() {
        let mut q = Query::new(QuerySpec::delta_vs_prev("jump", "F0", 0.5));
        let low = f0_of(&(0..20u64).collect::<Vec<_>>());
        let high = f0_of(&(0..200u64).collect::<Vec<_>>());
        assert!(q.observe(0, high).is_none(), "first rollover: no baseline");
        assert!(q.observe(1, high).is_none(), "no change");
        let a = q.observe(2, low).expect("large relative drop fires");
        assert_eq!(a.kind, AlertKind::Delta);
        assert!(a.baseline > a.value);
    }

    #[test]
    fn change_point_waits_for_history_then_fires_on_deviation() {
        let mut q = Query::new(QuerySpec::change_point("cp", "F0", 3, 4.0));
        let calm = f0_of(&(0..40u64).collect::<Vec<_>>());
        let spike = f0_of(&(0..400u64).collect::<Vec<_>>());
        for epoch in 0..3 {
            assert!(q.observe(epoch, calm).is_none(), "history still filling");
        }
        assert!(q.observe(3, calm).is_none(), "no deviation");
        let a = q.observe(4, spike).expect("deviation fires");
        assert_eq!(a.kind, AlertKind::ChangePoint);
        assert!((a.baseline - a.value).abs() > 100.0);
    }

    #[test]
    fn query_state_round_trips_on_the_wire() {
        let mut q = Query::new(QuerySpec::change_point("cp", "F0", 4, 2.0));
        let value = f0_of(&(0..30u64).collect::<Vec<_>>());
        for epoch in 0..3 {
            let _ = q.observe(epoch, value);
        }
        let bytes = q.encode();
        let back = Query::decode_slice(&bytes).expect("decodes");
        assert_eq!(back, q);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn change_point_history_decodes_as_a_scalar_not_a_length() {
        // Regression: history 50 exceeds the bytes remaining after it
        // in a bare spec encoding, which must not matter — it is a
        // config knob, not an element count.
        let spec = QuerySpec::change_point("cp", "F0", 50, 3.0);
        let back = QuerySpec::decode_slice(&spec.encode()).expect("decodes");
        assert_eq!(back, spec);

        let absurd = QuerySpec {
            name: "cp".into(),
            label: "F0".into(),
            kind: QueryKind::ChangePoint {
                history: MAX_CHANGE_POINT_HISTORY + 1,
                z: 3.0,
            },
        };
        assert!(QuerySpec::decode_slice(&absurd.encode()).is_err());
    }

    #[test]
    fn invalid_specs_are_rejected_on_decode() {
        let bad = QuerySpec {
            name: "bad".into(),
            label: "F0".into(),
            kind: QueryKind::DeltaVsPrev { rel_change: 0.0 },
        };
        let bytes = bad.encode();
        assert!(QuerySpec::decode_slice(&bytes).is_err());
    }

    #[test]
    fn alert_round_trips_on_the_wire() {
        let a = Alert {
            query: "q".into(),
            label: "entropy".into(),
            epoch: 17,
            value: 3.25,
            baseline: 1.5,
            kind: AlertKind::Delta,
        };
        let back = Alert::decode_slice(&a.encode()).expect("decodes");
        assert_eq!(back, a);
    }
}
