//! The channel-by-channel router with space expansion (Algorithm 1).
//!
//! # Performance
//!
//! The hot loop is engineered around three ideas (see the crate docs for the
//! full design notes):
//!
//! 1. **Zero-allocation search** — every A* runs inside a per-worker
//!    [`SearchScratch`] arena, so the search itself performs no heap
//!    allocation; routed paths are appended to a pre-reserved per-channel
//!    point arena and referenced by span (arena growth only occurs under
//!    heavy rip-up churn, never per routed net).
//! 2. **Incremental space expansion** — when a channel runs out of capacity
//!    the grid grows by one track and already-routed nets are *kept*: their
//!    sink-side terminals are extended by one vertical step instead of
//!    throwing the whole channel away and rerouting it from scratch. Before
//!    expanding, the router first tries rip-up-and-reroute: a penalty-mode
//!    A* finds the cheapest path through occupied edges, the (few) blocking
//!    nets are ripped up, the failed net takes the freed path, and the
//!    blockers are rerouted.
//! 3. **Parallel channels** — inter-phase channels share no routing
//!    resources, so they are distributed over a worker pool
//!    ([`RouterConfig::threads`]) and merged in row order. Each channel is
//!    routed by the same sequential procedure regardless of the thread
//!    count, so serial and parallel runs produce identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use aqfp_cells::{CancelToken, Point, Technology};
use aqfp_place::parallel::effective_threads;
use aqfp_place::{DesignEdit, PlacedDesign};
use serde::{Deserialize, Serialize};

use crate::grid::{ChannelGrid, GridPoint, SearchScratch};

/// Upper bound on how many nets one rip-up event may displace; pricier
/// conflicts fall through to space expansion instead.
const MAX_RIP_UP_BLOCKERS: usize = 8;

/// Once this many nets have failed in one routing round, further rip-up
/// attempts are skipped for the round: the congestion is structural and the
/// penalty searches would only burn time before the inevitable expansion.
const MAX_RIP_UP_ROUND_FAILURES: usize = 4;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Routing grid pitch in µm; wires only turn on this grid (the paper's
    /// dynamic step size, equal to the process minimum spacing).
    pub grid_step_um: f64,
    /// Initial number of routing tracks per channel (derived from the row
    /// pitch when 0).
    pub initial_tracks: usize,
    /// Maximum space expansions per channel before giving up.
    pub max_expansions: usize,
    /// Worker threads for channel-level parallel routing. `0` uses every
    /// available core; `1` routes strictly serially. The routed result is
    /// identical for every thread count.
    pub threads: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { grid_step_um: 10.0, initial_tracks: 0, max_expansions: 64, threads: 0 }
    }
}

/// One routed net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedWire {
    /// Index of the net in [`PlacedDesign::nets`].
    pub net: usize,
    /// The wire path in absolute layout coordinates (µm), including both
    /// pin endpoints.
    pub path: Vec<Point>,
    /// Total routed length in µm.
    pub length_um: f64,
    /// Number of vias (direction changes between the two wiring layers).
    pub via_count: usize,
}

/// Per-channel routing report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelReport {
    /// The driver row of the channel (nets go from this row to the next).
    pub row: usize,
    /// Nets routed through the channel.
    pub nets: usize,
    /// Space expansions applied before the channel became routable.
    pub expansions: usize,
    /// Final number of tracks in the channel.
    pub tracks: usize,
    /// Fraction of horizontal-layer capacity in use after routing.
    pub utilization: f64,
}

/// Aggregate routing statistics (the quantities Table IV reports, except the
/// JJ count which is a property of the placed cells).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Nets successfully routed.
    pub nets_routed: usize,
    /// Nets that could not be routed within the expansion limit.
    pub failed_nets: usize,
    /// Total routed wirelength in µm.
    pub total_wirelength_um: f64,
    /// Total via count.
    pub total_vias: usize,
    /// Total space expansions across all channels.
    pub space_expansions: usize,
}

/// The result of routing a placed design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingResult {
    /// Every routed wire.
    pub wires: Vec<RoutedWire>,
    /// Aggregate statistics.
    pub stats: RoutingStats,
    /// Per-channel reports.
    pub channels: Vec<ChannelReport>,
    /// Josephson junctions in the routed design (all placed cells, including
    /// buffers added by synthesis and placement).
    pub jj_count: usize,
    /// Width of the routing grid (in columns) the result was routed on.
    /// [`Router::route_partial`] reuses a channel's wires only while the
    /// grid the new design derives still has this column count.
    pub grid_columns: i64,
}

/// A net assigned to a channel, with its resolved pin columns.
#[derive(Debug, Clone, Copy)]
struct ChannelNet {
    /// Index into [`PlacedDesign::nets`].
    net: usize,
    /// Driver pin column on track 0.
    start_col: i64,
    /// Sink pin column on the top track.
    goal_col: i64,
}

/// One channel's routing work item.
#[derive(Debug, Clone)]
struct ChannelJob {
    row: usize,
    y_base: f64,
    nets: Vec<ChannelNet>,
}

/// The result of routing one channel.
#[derive(Debug)]
struct ChannelOutcome {
    report: ChannelReport,
    wires: Vec<RoutedWire>,
}

/// The layer-wise AQFP router.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct Router {
    technology: Arc<Technology>,
    config: RouterConfig,
    cancel: CancelToken,
}

impl Router {
    /// Creates a router with default configuration for the given
    /// technology. Accepts either an owned [`Technology`] or a shared
    /// `Arc<Technology>` (the flow driver shares one technology across all
    /// stages).
    pub fn new(technology: impl Into<Arc<Technology>>) -> Self {
        let technology = technology.into();
        let config =
            RouterConfig { grid_step_um: technology.rules().min_spacing, ..Default::default() };
        Self { technology, config, cancel: CancelToken::none() }
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(technology: impl Into<Arc<Technology>>, config: RouterConfig) -> Self {
        Self { technology: technology.into(), config, cancel: CancelToken::none() }
    }

    /// Attaches a cooperative [`CancelToken`]: it is polled before each
    /// channel job and once per space-expansion round inside a channel.
    /// After it fires, the remaining channels produce empty outcomes (their
    /// nets count as failed), so the router still returns promptly with a
    /// well-formed — but partial — [`RoutingResult`] the caller is expected
    /// to discard.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The technology the router targets.
    pub fn technology(&self) -> &Technology {
        &self.technology
    }

    /// The router configuration.
    pub fn config(&self) -> RouterConfig {
        self.config
    }

    /// Routes every net of a placed design, channel by channel.
    pub fn route(&self, design: &PlacedDesign) -> RoutingResult {
        let (step, columns, initial_tracks, auto_tracks) = self.grid_params(design);
        let jobs = build_channel_jobs(design, step, columns);
        let outcomes = self.route_channels(&jobs, columns, initial_tracks, auto_tracks, step);
        self.assemble(outcomes, design, columns)
    }

    /// Reroutes only the channels whose driver row is in `dirty_rows`,
    /// reusing every other channel's wires and report from `previous`.
    ///
    /// This is the flow's incremental DRC-repair entry point. Two kinds of
    /// repair feed it:
    ///
    /// * **Pure moves** (`edit: None`) — legalization or detailed placement
    ///   displaced cells without touching the row or net numbering. The
    ///   flow maps each moved cell to the (at most two) channels it
    ///   touches; only those channels reroute.
    /// * **Buffer-row edits** (`edit: Some`) — `insert_buffer_rows`
    ///   renumbered rows and appended cells/nets. The edit's row remap
    ///   re-keys every clean channel to its new row index (reports take the
    ///   new row, wires translate vertically onto the channel's new track
    ///   base); only the channels the edit created or rewrote
    ///   ([`DesignEdit::edited_channel_rows`] — callers pass them inside
    ///   `dirty_rows`) and the channels of cells the post-edit
    ///   legalize/detailed-place pass moved are routed fresh.
    ///
    /// Channel routing is deterministic and channels share no routing
    /// state, so the result is byte-identical to a from-scratch
    /// [`Router::route`] of the same design in both modes.
    ///
    /// The byte-identical guarantee requires `dirty_rows` to cover every
    /// channel whose cells moved since `previous` was routed — a channel
    /// wrongly reported clean keeps its stale wires. Grid-shape drift is
    /// handled defensively on top of that: when the column count changed (a
    /// moved or inserted cell widened the layer), the net list changed in a
    /// way the edit does not describe, or a supposedly clean channel
    /// disagrees with its previous report, the affected channels reroute
    /// from scratch.
    pub fn route_partial(
        &self,
        design: &PlacedDesign,
        previous: &RoutingResult,
        dirty_rows: &[usize],
        edit: Option<&DesignEdit>,
    ) -> RoutingResult {
        let (step, columns, initial_tracks, auto_tracks) = self.grid_params(design);
        let previous_nets = previous.stats.nets_routed + previous.stats.failed_nets;
        // The nets `previous` covered must be exactly the pre-edit nets
        // (all of today's nets when there was no edit).
        let expected_nets = edit.map_or(design.net_count(), |edit| edit.first_new_net);
        let rows_consistent = edit.is_none_or(|edit| {
            edit.row_count == design.rows.len()
                && edit.row_remap.last().is_none_or(|&last| last < edit.row_count)
        });
        if columns != previous.grid_columns || previous_nets != expected_nets || !rows_consistent {
            return self.route(design);
        }

        // New row → old row; identity when no edit renumbered the rows.
        let new_to_old: Vec<Option<usize>> = match edit {
            Some(edit) => edit.inverse_row_remap(),
            None => (0..design.rows.len()).map(Some).collect(),
        };

        let mut dirty: std::collections::BTreeSet<usize> = dirty_rows.iter().copied().collect();
        if let Some(edit) = edit {
            // The channels the edit created or rewrote carry new or
            // renumbered nets and can never reuse previous wires; fold them
            // in here so the guarantee does not depend on the caller
            // remembering to.
            dirty.extend(edit.edited_channel_rows());
        }
        // Previous reports keyed by their *old* row index.
        let previous_reports: std::collections::BTreeMap<usize, ChannelReport> =
            previous.channels.iter().map(|report| (report.row, *report)).collect();
        // Previous wires grouped by their *new* channel row, skipping the
        // dirty rows whose wires are about to be replaced anyway. Mapping
        // through the current design is correct in both modes: pure moves
        // never change a driver's row, and under an edit a pre-existing
        // net's driver either kept its cell (row remapped with the channel)
        // or became a buffer in an edited — hence dirty — channel.
        let mut previous_wires: std::collections::BTreeMap<usize, Vec<RoutedWire>> =
            Default::default();
        for wire in &previous.wires {
            let row = design.cells[design.nets[wire.net].driver].row;
            if !dirty.contains(&row) {
                previous_wires.entry(row).or_default().push(wire.clone());
            }
        }

        let jobs = build_channel_jobs(design, step, columns);
        let (dirty_jobs, clean_jobs): (Vec<ChannelJob>, Vec<ChannelJob>) =
            jobs.into_iter().partition(|job| {
                dirty.contains(&job.row)
                    || new_to_old[job.row].is_none()
                    || previous_reports
                        .get(&new_to_old[job.row].expect("checked above"))
                        .is_none_or(|report| report.nets != job.nets.len())
            });

        let mut outcomes =
            self.route_channels(&dirty_jobs, columns, initial_tracks, auto_tracks, step);
        for job in &clean_jobs {
            let old_row = new_to_old[job.row].expect("clean channels map to a previous row");
            let mut report = previous_reports[&old_row];
            report.row = job.row;
            let wires = previous_wires.remove(&job.row).unwrap_or_default();
            outcomes.push(ChannelOutcome { report, wires: rekey_wires(wires, job.y_base, step) });
        }
        outcomes.sort_by_key(|outcome| outcome.report.row);
        self.assemble(outcomes, design, columns)
    }

    /// The grid parameters a design derives under this configuration:
    /// `(step, columns, initial_tracks, auto_tracks)`.
    fn grid_params(&self, design: &PlacedDesign) -> (f64, i64, i64, bool) {
        let step = self.config.grid_step_um.max(1.0);
        let columns = ((design.layer_width() / step).ceil() as i64 + 2).max(2);
        let (initial_tracks, auto_tracks) = if self.config.initial_tracks >= 2 {
            (self.config.initial_tracks as i64, false)
        } else {
            (((design.row_pitch / step).round() as i64).max(2), true)
        };
        (step, columns, initial_tracks, auto_tracks)
    }

    /// Merges per-channel outcomes (already in row order, or sorted by the
    /// caller) into the final result.
    fn assemble(
        &self,
        outcomes: Vec<ChannelOutcome>,
        design: &PlacedDesign,
        columns: i64,
    ) -> RoutingResult {
        let mut wires = Vec::with_capacity(design.nets.len());
        let mut channel_reports = Vec::with_capacity(outcomes.len());
        let mut stats = RoutingStats {
            nets_routed: 0,
            failed_nets: 0,
            total_wirelength_um: 0.0,
            total_vias: 0,
            space_expansions: 0,
        };
        // Channels merge in row order, so the output is independent of the
        // worker-pool schedule.
        for outcome in outcomes {
            stats.nets_routed += outcome.wires.len();
            stats.failed_nets += outcome.report.nets - outcome.wires.len();
            stats.space_expansions += outcome.report.expansions;
            for wire in &outcome.wires {
                stats.total_wirelength_um += wire.length_um;
                stats.total_vias += wire.via_count;
            }
            wires.extend(outcome.wires);
            channel_reports.push(outcome.report);
        }

        let jj_count = design.cells.iter().map(|c| self.technology.cell(c.kind).jj_count).sum();
        RoutingResult { wires, stats, channels: channel_reports, jj_count, grid_columns: columns }
    }

    /// Routes every channel job, serially or on a worker pool.
    fn route_channels(
        &self,
        jobs: &[ChannelJob],
        columns: i64,
        initial_tracks: i64,
        auto_tracks: bool,
        step: f64,
    ) -> Vec<ChannelOutcome> {
        let workers = effective_threads(self.config.threads, jobs.len());
        let max_expansions = self.config.max_expansions;
        let cancel = &self.cancel;
        if workers <= 1 {
            let mut scratch = SearchScratch::new();
            return jobs
                .iter()
                .map(|job| {
                    if cancel.is_cancelled() {
                        return cancelled_outcome(job);
                    }
                    route_channel(
                        job,
                        columns,
                        initial_tracks,
                        auto_tracks,
                        max_expansions,
                        step,
                        &mut scratch,
                        cancel,
                    )
                })
                .collect();
        }

        let slots: Vec<Mutex<Option<ChannelOutcome>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Each worker owns one scratch arena for its whole run.
                    let mut scratch = SearchScratch::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        let outcome = if cancel.is_cancelled() {
                            cancelled_outcome(job)
                        } else {
                            route_channel(
                                job,
                                columns,
                                initial_tracks,
                                auto_tracks,
                                max_expansions,
                                step,
                                &mut scratch,
                                cancel,
                            )
                        };
                        *slots[index].lock().expect("no poisoned channel slot") = Some(outcome);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no poisoned channel slot")
                    .expect("every channel job produces an outcome")
            })
            .collect()
    }
}

/// Groups nets by channel (driver row) and assigns every pin a distinct grid
/// column on its side of the channel, spilling to the nearest free column
/// when the preferred one is taken or clamped at the boundary.
fn build_channel_jobs(design: &PlacedDesign, step: f64, columns: i64) -> Vec<ChannelJob> {
    let channel_count = design.rows.len();
    // The first track sits above the tallest cell so wires clear the cell
    // area; computed once per route() call, not per channel.
    let base_offset = channel_base_offset(design);

    let mut nets_by_channel: Vec<Vec<ChannelNet>> = vec![Vec::new(); channel_count];
    let mut start_used: Vec<Vec<bool>> = vec![Vec::new(); channel_count];
    let mut goal_used: Vec<Vec<bool>> = vec![Vec::new(); channel_count];
    let mut driver_counter = vec![0i64; design.cells.len()];
    let mut sink_counter = vec![0i64; design.cells.len()];

    for (net_index, net) in design.nets.iter().enumerate() {
        let driver = &design.cells[net.driver];
        let sink = &design.cells[net.sink];
        let row = driver.row;
        let start_col = pin_column(
            driver.center_x(),
            driver_counter[net.driver],
            step,
            columns,
            &mut start_used[row],
        );
        let goal_col =
            pin_column(sink.center_x(), sink_counter[net.sink], step, columns, &mut goal_used[row]);
        driver_counter[net.driver] += 1;
        sink_counter[net.sink] += 1;
        nets_by_channel[row].push(ChannelNet { net: net_index, start_col, goal_col });
    }

    nets_by_channel
        .into_iter()
        .enumerate()
        .filter(|(_, nets)| !nets.is_empty())
        .map(|(row, nets)| ChannelJob { row, y_base: design.row_y(row) + base_offset, nets })
        .collect()
}

/// The vertical offset of a channel's first track above its driver row: the
/// tallest cell in the library, so tracks clear the cell area.
fn channel_base_offset(design: &PlacedDesign) -> f64 {
    design.cells.iter().map(|c| c.height).fold(30.0, f64::max)
}

/// Grid column of a pin: the cell center plus a per-pin offset so that
/// several pins of the same cell land on distinct columns. When the
/// preferred column is already taken on this side of the channel (which
/// happens when the boundary clamp folds neighbouring pins together), the
/// pin spills to the nearest free column instead of silently overlapping.
fn pin_column(center_x: f64, pin_index: i64, step: f64, columns: i64, used: &mut Vec<bool>) -> i64 {
    if used.is_empty() {
        used.resize(columns as usize, false);
    }
    let base = (center_x / step).round() as i64;
    let preferred = (base + pin_index).clamp(0, columns - 1);
    for distance in 0..columns {
        for candidate in [preferred + distance, preferred - distance] {
            if (0..columns).contains(&candidate) && !used[candidate as usize] {
                used[candidate as usize] = true;
                return candidate;
            }
        }
    }
    // Every column on this side is taken (more nets than columns); fall back
    // to the preferred column and let the router report the conflict.
    preferred
}

/// The classic channel-routing density lower bound: the maximum number of
/// nets whose column intervals overlap at any single column. No assignment
/// of horizontal spans to tracks can use fewer tracks than this, so sizing
/// the channel below it just buys guaranteed expansion rounds.
fn channel_density(nets: &[ChannelNet]) -> i64 {
    let mut events: Vec<(i64, i64)> = Vec::with_capacity(nets.len() * 2);
    for net in nets {
        let low = net.start_col.min(net.goal_col);
        let high = net.start_col.max(net.goal_col);
        events.push((low, 1));
        events.push((high + 1, -1));
    }
    events.sort_unstable();
    let mut current = 0i64;
    let mut max = 0i64;
    for (_, delta) in events {
        current += delta;
        max = max.max(current);
    }
    max
}

/// Routes one channel with incremental space expansion and
/// rip-up-and-reroute. Purely sequential and deterministic; the parallel
/// driver calls this per channel.
/// The outcome of a channel skipped because cancellation fired before it was
/// routed: no wires, every net counted as failed. Only produced under a
/// fired [`CancelToken`], whose contract is that the partial result is
/// discarded by the caller.
fn cancelled_outcome(job: &ChannelJob) -> ChannelOutcome {
    ChannelOutcome {
        report: ChannelReport {
            row: job.row,
            nets: job.nets.len(),
            expansions: 0,
            tracks: 0,
            utilization: 0.0,
        },
        wires: Vec::new(),
    }
}

#[allow(clippy::too_many_arguments)]
fn route_channel(
    job: &ChannelJob,
    columns: i64,
    initial_tracks: i64,
    auto_tracks: bool,
    max_expansions: usize,
    step: f64,
    scratch: &mut SearchScratch,
    cancel: &CancelToken,
) -> ChannelOutcome {
    let nets = &job.nets;
    // When the track count is derived (not pinned by the config), start at
    // the density lower bound instead of discovering it one expansion at a
    // time — congested channels would otherwise pay a full failed-search
    // round per missing track.
    let start_tracks =
        if auto_tracks { initial_tracks.max(channel_density(nets) + 2) } else { initial_tracks };
    let mut grid = ChannelGrid::new(columns, start_tracks);

    // Route short nets first; long nets benefit most from the remaining free
    // tracks. `order` holds slot indices into `nets`.
    let mut order: Vec<usize> = (0..nets.len()).collect();
    order.sort_by_key(|&slot| {
        let net = nets[slot];
        ((net.start_col - net.goal_col).abs(), slot)
    });

    // Per-channel path storage: one shared point arena plus a span per slot.
    // Re-committing a net after rip-up appends a fresh span (the old one is
    // abandoned), so reserve room for every net's Manhattan path up front —
    // growth beyond that only happens under heavy rip-up churn.
    let mut arena: Vec<GridPoint> = Vec::with_capacity(
        nets.iter().map(|net| ((net.start_col - net.goal_col).abs() + start_tracks) as usize).sum(),
    );
    let mut spans: Vec<(usize, usize)> = vec![(0, 0); nets.len()];
    let mut routed: Vec<bool> = vec![false; nets.len()];
    // The top track at the time each slot was (last) routed; the difference
    // to the final top is the net's sink-side extension from later
    // expansions.
    let mut top_at_route: Vec<i64> = vec![0; nets.len()];
    let mut rip_blockers: Vec<u32> = Vec::new();

    let mut pending: Vec<usize> = order;
    let mut failed: Vec<usize> = Vec::new();
    let mut expansions = 0usize;

    loop {
        failed.clear();
        for &slot in &pending {
            let net = nets[slot];
            let top = grid.tracks() - 1;
            let start = GridPoint::new(net.start_col, 0);
            let goal = GridPoint::new(net.goal_col, top);
            if grid.a_star_into(start, goal, scratch) {
                commit(slot, &mut grid, scratch.path(), &mut arena, &mut spans, &mut routed);
                top_at_route[slot] = top;
                continue;
            }

            // Rip-up-and-reroute: find the cheapest path through occupied
            // edges; if it displaces only a few nets, take it and reroute
            // the blockers. The penalty makes one crossed edge costlier
            // than any clean detour, so the path crosses a minimal set of
            // nets. Only worth trying while the round is close to clean —
            // once several nets have already failed the congestion is
            // structural and the expansion below is the cheaper fix.
            if failed.len() >= MAX_RIP_UP_ROUND_FAILURES {
                failed.push(slot);
                continue;
            }
            let penalty = (columns + grid.tracks()) as u32;
            if !grid.a_star_with_penalty(start, goal, scratch, penalty)
                || scratch.blockers().is_empty()
                || scratch.blockers().len() > MAX_RIP_UP_BLOCKERS
            {
                failed.push(slot);
                continue;
            }
            rip_blockers.clear();
            rip_blockers.extend_from_slice(scratch.blockers());
            for &blocker in &rip_blockers {
                let blocker = blocker as usize;
                let (span_start, span_end) = spans[blocker];
                grid.rip_up(&arena[span_start..span_end]);
                rip_extension(&mut grid, nets[blocker].goal_col, top_at_route[blocker], top);
                routed[blocker] = false;
            }
            commit(slot, &mut grid, scratch.path(), &mut arena, &mut spans, &mut routed);
            top_at_route[slot] = top;
            // Reroute the displaced nets strictly, in slot order; whatever
            // no longer fits waits for the next expansion.
            for &blocker in &rip_blockers {
                let blocker = blocker as usize;
                let net = nets[blocker];
                let start = GridPoint::new(net.start_col, 0);
                let goal = GridPoint::new(net.goal_col, top);
                if grid.a_star_into(start, goal, scratch) {
                    commit(blocker, &mut grid, scratch.path(), &mut arena, &mut spans, &mut routed);
                    top_at_route[blocker] = top;
                } else {
                    failed.push(blocker);
                }
            }
        }

        if failed.is_empty() || expansions >= max_expansions {
            break;
        }
        // A fired token stops the expansion ladder; whatever routed so far
        // materializes below and the rest stays failed (the caller discards
        // cancelled results anyway).
        if cancel.is_cancelled() {
            break;
        }

        // Space expansion (Algorithm 1, line 21), incrementally: grow the
        // channel and keep every routed net, extending its sink terminal
        // onto the new top track; only the failed nets are rerouted. The
        // growth is proportional to the failure count (one track per four
        // failed nets, at least one) so heavily congested channels converge
        // in a few rounds instead of one round per missing track.
        let budget = max_expansions - expansions;
        let extra = (failed.len().div_ceil(4)).clamp(1, budget) as i64;
        let old_top = grid.tracks() - 1;
        grid.expand(extra);
        expansions += extra as usize;
        let new_top = grid.tracks() - 1;
        for (slot, net) in nets.iter().enumerate() {
            if routed[slot] {
                for track in old_top..new_top {
                    let a = GridPoint::new(net.goal_col, track);
                    let b = GridPoint::new(net.goal_col, track + 1);
                    grid.occupy_path_for(slot as u32, &[a, b]);
                }
            }
        }
        std::mem::swap(&mut pending, &mut failed);
    }

    // Materialize wires in net order (deterministic, independent of the
    // routing order and of rip-up history).
    let final_top = grid.tracks() - 1;
    let mut wires = Vec::with_capacity(nets.len());
    let mut full_path: Vec<GridPoint> = Vec::new();
    for (slot, net) in nets.iter().enumerate() {
        if !routed[slot] {
            continue;
        }
        let (span_start, span_end) = spans[slot];
        full_path.clear();
        full_path.extend_from_slice(&arena[span_start..span_end]);
        for track in top_at_route[slot] + 1..=final_top {
            full_path.push(GridPoint::new(net.goal_col, track));
        }
        wires.push(materialize_wire(net.net, &full_path, step, job.y_base));
    }

    let report = ChannelReport {
        row: job.row,
        nets: nets.len(),
        expansions,
        tracks: grid.tracks() as usize,
        utilization: grid.horizontal_utilization(),
    };
    ChannelOutcome { report, wires }
}

/// Records a found path for `slot`: appends it to the arena, updates the
/// span and marks the path's edges occupied.
fn commit(
    slot: usize,
    grid: &mut ChannelGrid,
    path: &[GridPoint],
    arena: &mut Vec<GridPoint>,
    spans: &mut [(usize, usize)],
    routed: &mut [bool],
) {
    let span_start = arena.len();
    arena.extend_from_slice(path);
    spans[slot] = (span_start, arena.len());
    grid.occupy_path_for(slot as u32, path);
    routed[slot] = true;
}

/// Frees the sink-side extension edges a routed net accumulated through
/// expansions after it was routed.
fn rip_extension(grid: &mut ChannelGrid, goal_col: i64, routed_top: i64, current_top: i64) {
    for track in routed_top..current_top {
        let a = GridPoint::new(goal_col, track);
        let b = GridPoint::new(goal_col, track + 1);
        grid.rip_up(&[a, b]);
    }
}

/// Translates reused channel wires onto their channel's (possibly new)
/// vertical base after a row-renumbering edit.
///
/// A channel wire's y coordinates are `y_base + track × step` with the
/// driver pin on track 0, so the old base is the wire's minimum y and each
/// point's track index is recovered exactly. The new y is then computed by
/// the same expression [`materialize_wire`] uses, which keeps re-keyed wires
/// bit-identical to freshly routed ones; wires whose base did not move are
/// returned untouched.
fn rekey_wires(mut wires: Vec<RoutedWire>, y_base: f64, step: f64) -> Vec<RoutedWire> {
    for wire in &mut wires {
        let old_base = wire.path.iter().map(|point| point.y).fold(f64::INFINITY, f64::min);
        if old_base.to_bits() == y_base.to_bits() {
            continue;
        }
        for point in &mut wire.path {
            let track = ((point.y - old_base) / step).round();
            point.y = y_base + track * step;
        }
    }
    wires
}

/// Converts a grid path into an absolute-coordinate wire with length and via
/// count.
fn materialize_wire(net: usize, path: &[GridPoint], step: f64, y_base: f64) -> RoutedWire {
    let points: Vec<Point> = path
        .iter()
        .map(|p| Point::new(p.column as f64 * step, y_base + p.track as f64 * step))
        .collect();
    let length_um = (path.len().saturating_sub(1)) as f64 * step;
    let mut via_count = 0;
    for window in path.windows(3) {
        let first_horizontal = window[0].track == window[1].track;
        let second_horizontal = window[1].track == window[2].track;
        if first_horizontal != second_horizontal {
            via_count += 1;
        }
    }
    RoutedWire { net, path: points, length_um, via_count }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
    use aqfp_place::{PlacementEngine, PlacerKind};
    use aqfp_synth::Synthesizer;

    fn placed(benchmark: Benchmark) -> (PlacedDesign, Technology) {
        let library = Technology::mit_ll_sqf5ee();
        let synthesized =
            Synthesizer::new(library.clone()).run(&benchmark_circuit(benchmark)).expect("ok");
        let result =
            PlacementEngine::new(library.clone()).place(&synthesized, PlacerKind::SuperFlow);
        (result.design, library)
    }

    #[test]
    fn routes_every_net_of_a_small_benchmark() {
        let (design, library) = placed(Benchmark::Adder8);
        let routing = Router::new(library).route(&design);
        assert_eq!(routing.stats.failed_nets, 0, "every net must route");
        assert_eq!(routing.stats.nets_routed, design.net_count());
        assert_eq!(routing.wires.len(), design.net_count());
        assert!(routing.stats.total_wirelength_um > 0.0);
        assert!(routing.jj_count > 0);
    }

    #[test]
    fn routed_length_is_at_least_the_placed_estimate() {
        let (design, library) = placed(Benchmark::Adder8);
        let routing = Router::new(library).route(&design);
        // Routed wirelength can only be longer than the straight-line
        // estimate used during placement (detours plus pin offsets).
        let estimate: f64 = design.nets.iter().map(|n| design.net_length(n)).sum();
        assert!(
            routing.stats.total_wirelength_um >= estimate * 0.5,
            "routed length {} suspiciously shorter than estimate {}",
            routing.stats.total_wirelength_um,
            estimate
        );
    }

    #[test]
    fn wire_paths_are_grid_aligned_and_connected() {
        let (design, library) = placed(Benchmark::Adder8);
        let config = RouterConfig { grid_step_um: 10.0, ..Default::default() };
        let routing = Router::with_config(library, config).route(&design);
        for wire in routing.wires.iter().take(200) {
            for point in &wire.path {
                assert!((point.x / 10.0).fract().abs() < 1e-9, "x {} off grid", point.x);
            }
            for pair in wire.path.windows(2) {
                let dx = (pair[0].x - pair[1].x).abs();
                let dy = (pair[0].y - pair[1].y).abs();
                assert!(
                    (dx - 10.0).abs() < 1e-9 && dy < 1e-9 || (dy - 10.0).abs() < 1e-9 && dx < 1e-9,
                    "segments advance one grid step at a time"
                );
            }
        }
    }

    #[test]
    fn congested_channels_use_space_expansion() {
        // A deliberately narrow initial channel (2 tracks) forces expansions
        // on any benchmark with more than a couple of nets per channel.
        let (design, library) = placed(Benchmark::Apc32);
        let config =
            RouterConfig { grid_step_um: 10.0, initial_tracks: 2, max_expansions: 64, threads: 0 };
        let routing = Router::with_config(library.clone(), config).route(&design);
        assert!(routing.stats.space_expansions > 0, "narrow channels must expand");
        assert_eq!(routing.stats.failed_nets, 0);
        // The same narrow channels without expansion leave nets unrouted.
        let config = RouterConfig { max_expansions: 0, ..config };
        let routing = Router::with_config(library, config).route(&design);
        assert!(routing.stats.failed_nets > 0, "without expansion some nets must fail");
    }

    #[test]
    fn expansion_limit_reports_failures_instead_of_hanging() {
        let (design, library) = placed(Benchmark::Adder8);
        let config =
            RouterConfig { grid_step_um: 10.0, initial_tracks: 2, max_expansions: 0, threads: 0 };
        let routing = Router::with_config(library, config).route(&design);
        // With no expansions allowed some channel is very likely to fail;
        // the router must report it rather than loop forever.
        assert_eq!(routing.stats.nets_routed + routing.stats.failed_nets, design.net_count());
    }

    #[test]
    fn via_counts_match_turns() {
        let (design, library) = placed(Benchmark::Adder8);
        let routing = Router::new(library).route(&design);
        for wire in routing.wires.iter().take(100) {
            // A two-pin channel wire needs at most a handful of turns.
            assert!(wire.via_count <= wire.path.len());
        }
        assert!(routing.stats.total_vias > 0);
    }

    #[test]
    fn channel_reports_cover_all_driver_rows_with_nets() {
        let (design, library) = placed(Benchmark::Adder8);
        let routing = Router::new(library).route(&design);
        let rows_with_nets: std::collections::BTreeSet<usize> =
            design.nets.iter().map(|n| design.cells[n.driver].row).collect();
        let reported: std::collections::BTreeSet<usize> =
            routing.channels.iter().map(|c| c.row).collect();
        assert_eq!(rows_with_nets, reported);
    }

    #[test]
    fn pin_columns_are_unique_per_channel_side() {
        let (design, library) = placed(Benchmark::Apc32);
        let routing = Router::new(library).route(&design);
        // With the spill fix, no two wires in the same channel may start or
        // end on the same column: endpoints are pin terminals.
        use std::collections::BTreeSet;
        let mut starts: std::collections::BTreeMap<usize, BTreeSet<i64>> = Default::default();
        let mut goals: std::collections::BTreeMap<usize, BTreeSet<i64>> = Default::default();
        for wire in &routing.wires {
            let row = design.cells[design.nets[wire.net].driver].row;
            let start = wire.path.first().expect("non-empty path");
            let goal = wire.path.last().expect("non-empty path");
            assert!(
                starts.entry(row).or_default().insert(start.x.round() as i64),
                "two driver pins share column {} in channel {row}",
                start.x
            );
            assert!(
                goals.entry(row).or_default().insert(goal.x.round() as i64),
                "two sink pins share column {} in channel {row}",
                goal.x
            );
        }
    }

    #[test]
    fn partial_reroute_with_no_dirty_channels_returns_the_previous_result() {
        let (design, library) = placed(Benchmark::Adder8);
        let router = Router::new(library);
        let before = router.route(&design);
        let rerouted = router.route_partial(&design, &before, &[], None);
        assert_eq!(before, rerouted, "an untouched design must reuse every channel verbatim");
    }

    #[test]
    fn partial_reroute_is_byte_identical_to_from_scratch() {
        let (mut design, library) = placed(Benchmark::Apc32);
        let router = Router::new(library);
        let before = router.route(&design);

        // Nudge the leftmost cell of two rows by one grid step (leftmost so
        // the overall layer width — and with it the grid column count —
        // stays put and the partial path is actually exercised).
        let mut dirty = Vec::new();
        for row in [2usize, 5] {
            let cell = design.rows[row][0];
            design.cells[cell].x += design.rules.grid;
            dirty.push(row);
            if row > 0 {
                dirty.push(row - 1);
            }
        }

        let scratch = router.route(&design);
        let partial = router.route_partial(&design, &before, &dirty, None);
        assert_eq!(scratch, partial, "incremental reroute must match a from-scratch reroute");
        let scratch_json = serde_json::to_string(&scratch).expect("serialize");
        let partial_json = serde_json::to_string(&partial).expect("serialize");
        assert_eq!(scratch_json, partial_json, "… down to the serialized bytes");
        // The nudges must actually have changed something, or the assertion
        // above would hold trivially.
        assert_ne!(before, scratch, "the perturbation must change the routed result");
    }

    /// The tentpole guarantee: after a real buffer-row edit (rows
    /// renumbered, cells and nets appended, originals split), consuming the
    /// [`DesignEdit`] reroutes only the edited/moved channels and is still
    /// byte-identical to a from-scratch route of the edited design.
    #[test]
    fn partial_reroute_consumes_a_buffer_row_edit() {
        use aqfp_place::buffer_rows::insert_buffer_rows;
        use aqfp_place::legalize::legalize;

        let (mut design, library) = placed(Benchmark::Apc32);
        let router = Router::new(library.clone());
        let before = router.route(&design);

        // Stretch one mid-design driver far enough to force buffer rows,
        // then repair exactly like the flow does: insert, re-legalize.
        let victim_row = 13usize;
        let net_index = design
            .nets
            .iter()
            .position(|net| design.cells[net.driver].row == victim_row)
            .expect("a net driven from the victim row");
        let driver = design.nets[net_index].driver;
        design.cells[driver].x = 0.0;
        let sink = design.nets[net_index].sink;
        design.cells[sink].x = design.rules.max_wirelength * 2.5;
        // Keep the perturbation horizontal-only and interior so the routing
        // grid's column count stays put (clamp the sink back inside the
        // layer width).
        let width = design.layer_width();
        if design.cells[sink].right() > width {
            design.cells[sink].x = (width - design.cells[sink].width) - design.rules.grid;
        }
        design.sort_rows_by_x();
        assert!(!design.max_wirelength_violations().is_empty(), "the stretch must violate");

        let (_, edit) = insert_buffer_rows(&mut design, &library);
        assert!(!edit.is_noop(), "the repair must renumber rows");
        let moved = legalize(&mut design).moved_cells;

        // Dirty set: the channels touched by every cell that moved since
        // `before` was routed — the two the test stretched plus whatever
        // the post-insert legalization displaced. (The edit's own channels
        // are folded in by route_partial itself.)
        let mut dirty: Vec<usize> = Vec::new();
        for cell in moved.iter().copied().chain([driver, sink]) {
            let row = design.cells[cell].row;
            dirty.push(row);
            if row > 0 {
                dirty.push(row - 1);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let scratch = router.route(&design);
        let partial = router.route_partial(&design, &before, &dirty, Some(&edit));
        assert_eq!(
            before.grid_columns, partial.grid_columns,
            "the perturbation must keep the column count so the incremental path is exercised"
        );
        assert_eq!(scratch, partial, "edit-aware reroute must match a from-scratch reroute");
        let scratch_json = serde_json::to_string(&scratch).expect("serialize");
        let partial_json = serde_json::to_string(&partial).expect("serialize");
        assert_eq!(scratch_json, partial_json, "… down to the serialized bytes");
        // The edit must have genuinely moved channels upward, so clean
        // channels were re-keyed rather than reused trivially.
        assert!(design.rows.len() > before.channels.len(), "rows were inserted");
    }

    /// An edit whose description disagrees with the design (stale edit)
    /// falls back to a from-scratch route instead of mixing stale wires in.
    #[test]
    fn partial_reroute_rejects_inconsistent_edits() {
        let (mut design, library) = placed(Benchmark::Adder8);
        let router = Router::new(library);
        let before = router.route(&design);
        // A fabricated edit claiming one more net than the previous result
        // covered: expected nets mismatch => full route.
        let mut edit = aqfp_place::DesignEdit::identity(&design);
        edit.first_new_net -= 1;
        let net = design.nets[0];
        design.nets.push(net);
        let partial = router.route_partial(&design, &before, &[], Some(&edit));
        let scratch = router.route(&design);
        assert_eq!(scratch, partial);
    }

    #[test]
    fn partial_reroute_falls_back_to_full_on_netlist_changes() {
        let (mut design, library) = placed(Benchmark::Adder8);
        let router = Router::new(library);
        let before = router.route(&design);
        // Splice in an extra net: the previous result no longer covers the
        // design, so every channel must reroute regardless of the dirty set.
        let net = design.nets[0];
        design.nets.push(net);
        let partial = router.route_partial(&design, &before, &[], None);
        let scratch = router.route(&design);
        assert_eq!(scratch, partial);
        assert_eq!(partial.stats.nets_routed + partial.stats.failed_nets, design.net_count());
    }

    #[test]
    fn a_fired_token_returns_promptly_with_every_net_failed() {
        let (design, technology) = placed(Benchmark::Adder8);
        let token = CancelToken::new();
        token.cancel();
        let result = Router::new(technology).with_cancel(token).route(&design);
        assert_eq!(result.stats.nets_routed, 0, "no channel may route after cancellation");
        assert_eq!(result.stats.failed_nets, design.net_count());
        // The result is still well-formed: one report per channel.
        assert_eq!(result.channels.iter().map(|c| c.nets).sum::<usize>(), design.net_count());
    }

    #[test]
    fn serial_and_parallel_routing_are_byte_identical() {
        let (design, library) = placed(Benchmark::Apc32);
        let serial = Router::with_config(
            library.clone(),
            RouterConfig { threads: 1, ..RouterConfig::default() },
        )
        .route(&design);
        let parallel =
            Router::with_config(library, RouterConfig { threads: 4, ..RouterConfig::default() })
                .route(&design);
        assert_eq!(serial, parallel, "thread count must not change the routed result");
        // Byte-level check on the serialized artifacts, not just PartialEq.
        let serial_json = serde_json::to_string(&serial).expect("serialize");
        let parallel_json = serde_json::to_string(&parallel).expect("serialize");
        assert_eq!(serial_json, parallel_json);
    }
}
