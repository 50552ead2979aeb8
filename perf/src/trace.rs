//! Spans around calls into the product, recorded by the benchmark itself:
//! name, start, end and the span that caused it. Kept in memory and written
//! out when the run ends. Off (one branch per span) for the timed
//! repetitions; on for the one traced repetition.

use crate::json::Json;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Seconds covered by the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// `(name, seconds)` of every span whose name starts with `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> {
        self.spans
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
            .map(|s| (s.name.as_str(), s.end_s - s.start_s))
    }

    /// A span's self time: its duration minus what its children cover.
    fn self_s(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_s - s.start_s)
            .sum();
        self.spans[id].end_s - self.spans[id].start_s - children
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(id as f64)),
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_s".into(), Json::Num(s.start_s)),
                        ("end_s".into(), Json::Num(s.end_s)),
                        ("self_s".into(), Json::Num(self.self_s(id))),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.total_s("inner") >= 0.002);
        assert!(tr.self_s(0) <= tr.total_s("outer") - tr.total_s("inner") + 1e-9);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans.is_empty());
    }
}
