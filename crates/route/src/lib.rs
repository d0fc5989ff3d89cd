//! Layer-wise A* routing with space expansion for AQFP circuits.
//!
//! AQFP routing is simpler than CMOS routing in one way and harder in
//! another: every net is a point-to-point connection between two adjacent
//! clock phases (no global routing across the chip is needed), but only two
//! metal layers are available in each inter-phase channel and the wire
//! geometry must respect the zigzag spacing rule (turns only on the 10 µm
//! grid). SuperFlow therefore routes each channel independently
//! ("layer-wise" routing, §III-D and Algorithm 1 of the paper):
//!
//! * [`grid`] — the two-layer channel routing grid with per-edge occupancy
//!   and an A* shortest-path search with Manhattan heuristic;
//! * [`router`] — the [`Router`] driving channel-by-channel routing with
//!   iterative *space expansion*: when a channel runs out of capacity, the
//!   distance between the two rows grows by one grid step and the channel is
//!   rerouted, exactly as Algorithm 1 describes.
//!
//! # Performance
//!
//! The routing core is built for zero allocation and multi-core operation:
//!
//! * **Flat occupancy** — [`ChannelGrid`] stores per-layer edge occupancy in
//!   flat arrays indexed `track * columns + column` (occupant net id or
//!   free), not hash sets. Lookups in the A* inner loop are a bounds-checked
//!   load, and space expansion appends rows without invalidating existing
//!   entries.
//! * **Search arena** — all A* state (cost, parent and visit tables, the
//!   open queue, the result path) lives in a reusable
//!   [`grid::SearchScratch`] owned per worker. Visit tables are invalidated
//!   by bumping a generation counter, so the search itself performs no
//!   heap allocation after channel setup; routed paths land in a
//!   pre-reserved per-channel point arena referenced by spans, which only
//!   grows under heavy rip-up churn.
//! * **Incremental rip-up and expansion** — when a net fails, a penalty-mode
//!   A* (occupied edges passable at high cost) identifies the minimal set of
//!   blocking nets; if that set is small, the blockers are ripped up and
//!   rerouted instead of expanding. When expansion is needed, routed nets
//!   are *kept* and their sink terminals extended onto the new tracks —
//!   only failed nets reroute. Auto-sized channels start at the classic
//!   density lower bound so congested channels do not discover their track
//!   count one failed round at a time.
//! * **Parallel channels** — channels share no routing state and run on a
//!   worker pool ([`RouterConfig::threads`], `0` = all cores); results merge
//!   in row order, so serial and parallel runs are byte-identical.
//! * **Partial reroute** — [`Router::route_partial`] reroutes only the
//!   channels named dirty (because DRC repair moved cells in them) and
//!   reuses every other channel's wires from the previous
//!   [`RoutingResult`]. Channel routing is deterministic, so the outcome is
//!   byte-identical to a from-scratch [`Router::route`] of the same design;
//!   the flow's DRC-repair loop is built on this entry point.
//!
//! The flow benchmark (`flowbench/`) times these paths per layer
//! (`route.route_s`, `route.partial_s`); the unit tests pin serial/parallel
//! and partial/from-scratch byte identity.
//!
//! # Examples
//!
//! ```
//! use aqfp_cells::Technology;
//! use aqfp_netlist::generators::{benchmark_circuit, Benchmark};
//! use aqfp_place::{PlacementEngine, PlacerKind};
//! use aqfp_route::Router;
//! use aqfp_synth::Synthesizer;
//!
//! let library = Technology::mit_ll_sqf5ee();
//! let synthesized = Synthesizer::new(library.clone())
//!     .run(&benchmark_circuit(Benchmark::Adder8))?;
//! let placed = PlacementEngine::new(library.clone()).place(&synthesized, PlacerKind::SuperFlow);
//! let routing = Router::new(library).route(&placed.design);
//! assert_eq!(routing.stats.failed_nets, 0);
//! # Ok::<(), aqfp_synth::SynthesisError>(())
//! ```

#![warn(clippy::unwrap_used)]

pub mod grid;
pub mod router;

pub use grid::{ChannelGrid, GridPoint};
pub use router::{ChannelReport, RoutedWire, Router, RouterConfig, RoutingResult, RoutingStats};
