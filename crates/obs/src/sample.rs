//! The windowed sampler.
//!
//! Called once per simulated cycle with cumulative counters and
//! instantaneous gauges, the sampler folds them into fixed-width
//! windows: each counter's delta over the window and each gauge's mean.
//! Deltas are taken against the previous window's cumulative values
//! starting from zero, so the windows partition the run exactly —
//! summing a counter's deltas over every window reproduces its final
//! cumulative value, and Σ cycles equals the number of observed cycles.
//! For committed instructions that is the invariant that per-window IPC
//! weighted by window length sums back to the run's aggregate IPC.
//!
//! A list of [`Column`]s names the counters and gauges and says how each
//! CSV column derives from a window. The simulator keeps two instances:
//! the trace timeline (IPC, queue occupancy, search demand) and the
//! cycle accountant's CPI stack (commit slots per component).

/// How one CSV column derives from a [`Window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// The window's delta of counter `i`.
    Delta(&'static str, usize),
    /// The window's delta of counter `i` per cycle (e.g. IPC), printed
    /// to six decimals.
    Rate(&'static str, usize),
    /// The window's mean of gauge `i`, printed to three decimals.
    Mean(&'static str, usize),
}

impl Column {
    fn label(self) -> &'static str {
        match self {
            Column::Delta(l, _) | Column::Rate(l, _) | Column::Mean(l, _) => l,
        }
    }
}

/// One completed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// First cycle observed in this window.
    pub start_cycle: u64,
    /// Last cycle observed in this window.
    pub end_cycle: u64,
    /// Cycles observed in this window.
    pub cycles: u64,
    /// Each counter's delta over the window, in counter order.
    pub deltas: Vec<u64>,
    /// Each gauge's mean over the window, in gauge order.
    pub means: Vec<f64>,
}

/// Folds per-cycle observations into fixed-width [`Window`]s.
#[derive(Debug, Clone)]
pub struct Sampler {
    window: u64,
    columns: Vec<Column>,
    rows: Vec<Window>,
    samples_in_window: u64,
    win_start: u64,
    win_end: u64,
    /// Counter values at the end of the last flushed window.
    base: Vec<u64>,
    /// Latest counter values seen.
    last: Vec<u64>,
    /// Gauge sums over the current window.
    sums: Vec<f64>,
}

impl Sampler {
    /// A sampler with the given window width in cycles and CSV columns.
    /// It takes as many counters and gauges as the columns reference:
    /// one more than the highest index of each kind.
    ///
    /// # Panics
    /// If `window` is zero or `columns` is empty.
    pub fn new(window: u64, columns: &[Column]) -> Self {
        assert!(window > 0, "sampler window must be at least one cycle");
        assert!(!columns.is_empty(), "sampler needs at least one column");
        let (mut counters, mut gauges) = (0, 0);
        for &c in columns {
            match c {
                Column::Delta(_, i) | Column::Rate(_, i) => counters = counters.max(i + 1),
                Column::Mean(_, i) => gauges = gauges.max(i + 1),
            }
        }
        Sampler {
            window,
            columns: columns.to_vec(),
            rows: Vec::new(),
            samples_in_window: 0,
            win_start: 0,
            win_end: 0,
            base: vec![0; counters],
            last: vec![0; counters],
            sums: vec![0.0; gauges],
        }
    }

    /// Records one cycle's observations: every counter's cumulative
    /// value and every gauge's current value. Call exactly once per
    /// simulated cycle (cycle values may start anywhere and need not be
    /// dense — windows are "per N observations", and row boundaries
    /// report the observed cycle range).
    ///
    /// # Panics
    /// If the slices do not hold one value per counter and per gauge.
    pub fn observe(&mut self, cycle: u64, counters: &[u64], gauges: &[u64]) {
        assert_eq!(counters.len(), self.last.len(), "one value per counter");
        assert_eq!(gauges.len(), self.sums.len(), "one value per gauge");
        if self.samples_in_window == 0 {
            self.win_start = cycle;
        }
        self.win_end = cycle;
        self.samples_in_window += 1;
        self.last.copy_from_slice(counters);
        for (sum, &g) in self.sums.iter_mut().zip(gauges) {
            *sum += g as f64;
        }
        if self.samples_in_window == self.window {
            self.flush_window();
        }
    }

    fn flush_window(&mut self) {
        let n = self.samples_in_window;
        debug_assert!(n > 0);
        self.rows.push(Window {
            start_cycle: self.win_start,
            end_cycle: self.win_end,
            cycles: n,
            deltas: self
                .last
                .iter()
                .zip(&self.base)
                .map(|(l, b)| l - b)
                .collect(),
            means: self.sums.iter().map(|s| s / n as f64).collect(),
        });
        self.base.copy_from_slice(&self.last);
        self.sums.fill(0.0);
        self.samples_in_window = 0;
    }

    /// Emits the partial last window, if any cycles are pending. Call at
    /// end of run so the rows cover every observed cycle.
    pub fn flush(&mut self) {
        if self.samples_in_window > 0 {
            self.flush_window();
        }
    }

    /// The completed windows, oldest first.
    pub fn rows(&self) -> &[Window] {
        &self.rows
    }

    /// The rows as CSV: `start_cycle,end_cycle,cycles` and then one
    /// column per [`Column`]. Flush first to include the partial last
    /// window.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("start_cycle,end_cycle,cycles");
        for c in &self.columns {
            out.push(',');
            out.push_str(c.label());
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{},{},{}", r.start_cycle, r.end_cycle, r.cycles));
            for &c in &self.columns {
                match c {
                    Column::Delta(_, i) => out.push_str(&format!(",{}", r.deltas[i])),
                    Column::Rate(_, i) => {
                        let rate = r.deltas[i] as f64 / r.cycles as f64;
                        out.push_str(&format!(",{rate:.6}"));
                    }
                    Column::Mean(_, i) => out.push_str(&format!(",{:.3}", r.means[i])),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters: committed, searches; gauge: occupancy.
    const COLS: &[Column] = &[
        Column::Delta("committed", 0),
        Column::Rate("ipc", 0),
        Column::Mean("occupancy", 0),
        Column::Delta("searches", 1),
    ];

    /// Counters only, one per component.
    const LABELS: &[Column] = &[
        Column::Delta("base", 0),
        Column::Delta("frontend", 1),
        Column::Delta("dep_chain", 2),
    ];

    fn observe(s: &mut Sampler, cycle: u64, committed: u64) {
        s.observe(cycle, &[committed, committed / 2], &[4]);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_panics() {
        let _ = Sampler::new(0, COLS);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_columns_panic() {
        let _ = Sampler::new(4, &[]);
    }

    #[test]
    #[should_panic(expected = "one value per counter")]
    fn mismatched_counter_width_panics() {
        let mut s = Sampler::new(4, LABELS);
        s.observe(1, &[1, 2], &[]);
    }

    #[test]
    fn widths_follow_the_columns() {
        let s = Sampler::new(4, COLS);
        assert_eq!((s.last.len(), s.sums.len()), (2, 1));
        let s = Sampler::new(4, LABELS);
        assert_eq!((s.last.len(), s.sums.len()), (3, 0));
    }

    #[test]
    fn sample_at_cycle_zero_starts_first_window() {
        let mut s = Sampler::new(4, COLS);
        for cycle in 0..4 {
            observe(&mut s, cycle, cycle * 2);
        }
        assert_eq!(s.rows().len(), 1);
        let r = &s.rows()[0];
        assert_eq!(r.start_cycle, 0);
        assert_eq!(r.end_cycle, 3);
        assert_eq!(r.cycles, 4);
        assert_eq!(r.deltas[0], 6);
        assert_eq!(r.means[0], 4.0);
    }

    #[test]
    fn partial_last_window_flushes() {
        let mut s = Sampler::new(4, COLS);
        for cycle in 0..10 {
            observe(&mut s, cycle, cycle);
        }
        assert_eq!(s.rows().len(), 2);
        s.flush();
        assert_eq!(s.rows().len(), 3);
        let last = &s.rows()[2];
        assert_eq!(last.start_cycle, 8);
        assert_eq!(last.end_cycle, 9);
        assert_eq!(last.cycles, 2);
        // Flushing again is a no-op.
        s.flush();
        assert_eq!(s.rows().len(), 3);
    }

    #[test]
    fn window_of_one_emits_every_cycle() {
        let mut s = Sampler::new(1, COLS);
        observe(&mut s, 0, 1);
        observe(&mut s, 1, 3);
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[0].deltas[0], 1);
        assert_eq!(s.rows()[1].deltas[0], 2);
    }

    #[test]
    fn deltas_partition_the_run_exactly() {
        // Σ committed and Σ cycles across rows reproduce the
        // aggregates, so length-weighted per-window IPC equals
        // aggregate IPC.
        let mut s = Sampler::new(7, COLS);
        let total_cycles = 23u64;
        let mut committed = 0u64;
        for cycle in 0..total_cycles {
            committed += (cycle % 3 == 0) as u64 * 2;
            observe(&mut s, cycle, committed);
        }
        s.flush();
        let sum_cycles: u64 = s.rows().iter().map(|r| r.cycles).sum();
        let sum_committed: u64 = s.rows().iter().map(|r| r.deltas[0]).sum();
        assert_eq!(sum_cycles, total_cycles);
        assert_eq!(sum_committed, committed);
        let weighted: f64 = s
            .rows()
            .iter()
            .map(|r| r.deltas[0] as f64 / r.cycles as f64 * r.cycles as f64)
            .sum();
        let aggregate = committed as f64 / total_cycles as f64;
        assert!((weighted / total_cycles as f64 - aggregate).abs() < 1e-12);
    }

    #[test]
    fn windows_carry_per_component_deltas() {
        let mut s = Sampler::new(2, LABELS);
        // Each cycle charges 8 slots split across the three components.
        s.observe(1, &[5, 3, 0], &[]);
        s.observe(2, &[8, 6, 2], &[]);
        s.observe(3, &[16, 6, 2], &[]);
        s.flush();
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[0].deltas, vec![8, 6, 2]);
        assert_eq!((s.rows()[0].start_cycle, s.rows()[0].end_cycle), (1, 2));
        assert_eq!(s.rows()[1].deltas, vec![8, 0, 0]);
        assert_eq!(s.rows()[1].cycles, 1);
        // Flushing again is a no-op.
        s.flush();
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn component_deltas_partition_the_run_exactly() {
        // Summing each component over all rows reproduces its final
        // cumulative value, so every commit slot appears in exactly one
        // window.
        let mut s = Sampler::new(7, LABELS);
        let mut cum = [0u64; 3];
        for cycle in 1..=23u64 {
            cum[(cycle % 3) as usize] += 8;
            s.observe(cycle, &cum, &[]);
        }
        s.flush();
        let mut summed = [0u64; 3];
        let mut cycles = 0u64;
        for r in s.rows() {
            cycles += r.cycles;
            for (acc, s) in summed.iter_mut().zip(&r.deltas) {
                *acc += s;
            }
        }
        assert_eq!(summed, cum);
        assert_eq!(cycles, 23);
        // Each window's slots sum to cycles × width (8 per cycle here).
        for r in s.rows() {
            assert_eq!(r.deltas.iter().sum::<u64>(), r.cycles * 8);
        }
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let mut s = Sampler::new(2, COLS);
        for cycle in 0..5 {
            observe(&mut s, cycle, cycle);
        }
        s.flush();
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3);
        assert_eq!(
            lines[0],
            "start_cycle,end_cycle,cycles,committed,ipc,occupancy,searches"
        );
        assert_eq!(lines[1], "0,1,2,1,0.500000,4.000,0");
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 7);
        }
    }

    #[test]
    fn csv_has_component_columns() {
        let mut s = Sampler::new(2, LABELS);
        s.observe(1, &[4, 4, 0], &[]);
        s.observe(2, &[8, 8, 0], &[]);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "start_cycle,end_cycle,cycles,base,frontend,dep_chain"
        );
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], "1,2,2,8,8,0");
    }
}
