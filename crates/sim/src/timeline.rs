//! Per-worker execution timelines and ASCII rendering.

use pipedream_core::schedule::Op;
use serde::{Deserialize, Serialize};

/// What a worker spent an interval doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkKind {
    /// Forward compute for a minibatch.
    Forward(u64),
    /// Backward compute for a minibatch.
    Backward(u64),
    /// Gradient synchronization (replicated stages / data parallelism).
    Sync,
    /// Pipeline flush (GPipe weight update).
    Flush,
    /// Per-stage checkpoint write (measured runs only).
    Checkpoint,
    /// Bounded wait that gave up: sync deadline expired or a peer was
    /// lost (measured runs only).
    Stall,
}

impl WorkKind {
    /// Build from a schedule op.
    pub fn from_op(op: Op) -> WorkKind {
        match op {
            Op::Forward { mb } => WorkKind::Forward(mb),
            Op::Backward { mb } => WorkKind::Backward(mb),
            Op::Flush => WorkKind::Flush,
        }
    }
}

/// One busy interval on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
    /// What was running.
    pub kind: WorkKind,
}

impl Interval {
    /// Interval length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Busy intervals for every worker, sorted by start time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// `per_worker[w]` lists worker `w`'s busy intervals in time order.
    pub per_worker: Vec<Vec<Interval>>,
}

impl Timeline {
    /// New timeline for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Timeline {
            per_worker: vec![Vec::new(); workers],
        }
    }

    /// Record a busy interval on worker `w`.
    pub fn record(&mut self, w: usize, start: f64, end: f64, kind: WorkKind) {
        debug_assert!(end >= start, "negative interval");
        self.per_worker[w].push(Interval { start, end, kind });
    }

    /// Latest end time across all workers (0 when empty).
    pub fn makespan(&self) -> f64 {
        self.per_worker
            .iter()
            .flat_map(|w| w.iter().map(|i| i.end))
            .fold(0.0, f64::max)
    }

    /// Total busy seconds of worker `w`.
    pub fn busy(&self, w: usize) -> f64 {
        self.per_worker[w].iter().map(Interval::duration).sum()
    }

    /// Utilization of worker `w` over the makespan (0 when empty).
    pub fn utilization(&self, w: usize) -> f64 {
        let span = self.makespan();
        if span == 0.0 {
            0.0
        } else {
            self.busy(w) / span
        }
    }

    /// Mean utilization across workers.
    pub fn mean_utilization(&self) -> f64 {
        self.mean_utilization_over(self.makespan())
    }

    /// The same for a caller that already holds the makespan, which costs a
    /// scan of every interval: it is taken once, not once per worker.
    pub(crate) fn mean_utilization_over(&self, span: f64) -> f64 {
        let workers = self.per_worker.len();
        if workers == 0 || span == 0.0 {
            return 0.0;
        }
        (0..workers).map(|w| self.busy(w) / span).sum::<f64>() / workers as f64
    }
}

/// Render a timeline as ASCII art in the style of the paper's Figures 2–4:
/// one row per worker, time on the x-axis, cells showing the minibatch id
/// (forward) or the id bracketed (backward); `.` is idle, `~` is gradient
/// sync, `|` is a flush.
///
/// `cols` is the rendered width; each column covers `makespan / cols`
/// seconds and shows whatever ran at the column's midpoint.
pub fn render_timeline(timeline: &Timeline, cols: usize) -> String {
    let span = timeline.makespan();
    let mut out = String::new();
    if span == 0.0 {
        return out;
    }
    for (w, intervals) in timeline.per_worker.iter().enumerate() {
        out.push_str(&format!("worker {w:2} |"));
        for c in 0..cols {
            let t = (c as f64 + 0.5) / cols as f64 * span;
            let cell = intervals
                .iter()
                .find(|i| i.start <= t && t < i.end)
                .map(|i| match i.kind {
                    WorkKind::Forward(mb) => char::from_digit((mb % 10) as u32, 10).unwrap_or('?'),
                    WorkKind::Backward(_) => '#',
                    WorkKind::Sync => '~',
                    WorkKind::Flush => '|',
                    WorkKind::Checkpoint => 'C',
                    WorkKind::Stall => '!',
                })
                .unwrap_or('.');
            out.push(cell);
        }
        out.push('\n');
    }
    out
}

/// Render with backward passes showing their minibatch id in brackets on a
/// second legend line — a more detailed listing used by the `repro` binary.
pub fn describe_timeline(timeline: &Timeline) -> String {
    let mut out = String::new();
    for (w, intervals) in timeline.per_worker.iter().enumerate() {
        out.push_str(&format!("worker {w:2}: "));
        for i in intervals {
            match i.kind {
                WorkKind::Forward(mb) => out.push_str(&format!("F{mb} ")),
                WorkKind::Backward(mb) => out.push_str(&format!("B{mb} ")),
                WorkKind::Sync => out.push_str("S "),
                WorkKind::Flush => out.push_str("| "),
                WorkKind::Checkpoint => out.push_str("C "),
                WorkKind::Stall => out.push_str("! "),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        let mut t = Timeline::new(2);
        t.record(0, 0.0, 1.0, WorkKind::Forward(0));
        t.record(0, 1.0, 3.0, WorkKind::Backward(0));
        t.record(1, 1.0, 2.0, WorkKind::Forward(0));
        t
    }

    #[test]
    fn makespan_and_busy() {
        let t = sample();
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.busy(0), 3.0);
        assert_eq!(t.busy(1), 1.0);
    }

    #[test]
    fn utilization() {
        let t = sample();
        assert!((t.utilization(0) - 1.0).abs() < 1e-12);
        assert!((t.utilization(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_utilization() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_shows_idle_and_work() {
        let t = sample();
        let s = render_timeline(&t, 6);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // Worker 0: forward for the first third, backward for the rest.
        assert!(lines[0].contains('0'));
        assert!(lines[0].contains('#'));
        // Worker 1 idles in the last third.
        assert!(lines[1].ends_with('.'));
    }

    #[test]
    fn describe_lists_ops() {
        let s = describe_timeline(&sample());
        assert!(s.contains("F0 B0"));
    }

    #[test]
    fn checkpoint_and_stall_render() {
        let mut t = Timeline::new(1);
        t.record(0, 0.0, 1.0, WorkKind::Checkpoint);
        t.record(0, 1.0, 2.0, WorkKind::Stall);
        let s = render_timeline(&t, 4);
        assert!(s.contains('C') && s.contains('!'), "{s}");
        assert!(describe_timeline(&t).contains("C ! "));
        let svg = render_svg(&t, 300);
        assert!(svg.contains("#c9a6d6") && svg.contains("#d67a7a"));
    }

    #[test]
    fn empty_timeline_renders_empty() {
        let t = Timeline::new(1);
        assert_eq!(render_timeline(&t, 10), "");
        assert_eq!(t.mean_utilization(), 0.0);
    }
}

/// Render a timeline as a standalone SVG document in the style of the
/// paper's Figures 2–4: one lane per worker, blue boxes for forward passes
/// (labelled with the minibatch id), green for backward, grey hatching for
/// communication/sync, white for idle.
pub fn render_svg(timeline: &Timeline, width_px: u32) -> String {
    const LANE_H: u32 = 28;
    const LANE_GAP: u32 = 6;
    const LABEL_W: u32 = 70;
    let span = timeline.makespan();
    let workers = timeline.per_worker.len() as u32;
    let height = workers * (LANE_H + LANE_GAP) + LANE_GAP + 20;
    let plot_w = width_px.saturating_sub(LABEL_W + 10) as f64;
    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"11\">\n"
    ));
    svg.push_str("<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
    if span <= 0.0 {
        svg.push_str("</svg>\n");
        return svg;
    }
    for (w, intervals) in timeline.per_worker.iter().enumerate() {
        let y = LANE_GAP + w as u32 * (LANE_H + LANE_GAP);
        svg.push_str(&format!(
            "<text x=\"4\" y=\"{}\">worker {w}</text>\n",
            y + LANE_H / 2 + 4
        ));
        // Lane background (idle).
        svg.push_str(&format!(
            "<rect x=\"{LABEL_W}\" y=\"{y}\" width=\"{:.1}\" height=\"{LANE_H}\" \
             fill=\"#f4f4f4\" stroke=\"#ccc\"/>\n",
            plot_w
        ));
        for i in intervals {
            let x = LABEL_W as f64 + i.start / span * plot_w;
            let w_px = (i.duration() / span * plot_w).max(1.0);
            let (fill, label) = match i.kind {
                WorkKind::Forward(mb) => ("#7aa6d6", Some(mb)),
                WorkKind::Backward(mb) => ("#79b791", Some(mb)),
                WorkKind::Sync => ("#bbbbbb", None),
                WorkKind::Flush => ("#e0c068", None),
                WorkKind::Checkpoint => ("#c9a6d6", None),
                WorkKind::Stall => ("#d67a7a", None),
            };
            svg.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w_px:.1}\" height=\"{LANE_H}\" \
                 fill=\"{fill}\" stroke=\"#555\"/>\n"
            ));
            if let Some(mb) = label {
                if w_px > 12.0 {
                    svg.push_str(&format!(
                        "<text x=\"{:.1}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
                        x + w_px / 2.0,
                        y + LANE_H / 2 + 4,
                        mb
                    ));
                }
            }
        }
    }
    svg.push_str(&format!(
        "<text x=\"{LABEL_W}\" y=\"{}\">0 s</text>\n<text x=\"{}\" y=\"{}\" \
         text-anchor=\"end\">{span:.4} s</text>\n",
        height - 4,
        width_px - 10,
        height - 4
    ));
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod svg_tests {
    use super::*;

    #[test]
    fn svg_contains_one_rect_per_interval_plus_lanes() {
        let mut t = Timeline::new(2);
        t.record(0, 0.0, 1.0, WorkKind::Forward(0));
        t.record(0, 1.0, 3.0, WorkKind::Backward(0));
        t.record(1, 1.0, 2.0, WorkKind::Forward(0));
        let svg = render_svg(&t, 400);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // 1 background + 2 lane backgrounds + 3 interval rects.
        assert_eq!(svg.matches("<rect").count(), 1 + 2 + 3);
        assert!(svg.contains("#79b791"), "backward colour present");
    }

    #[test]
    fn empty_timeline_is_valid_svg() {
        let svg = render_svg(&Timeline::new(3), 200);
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>\n"));
    }
}
