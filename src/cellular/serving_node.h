// ServingNode — the location-management service as one serving process.
//
// Everything confcall_serve serves, minus the process itself: a
// scenario's world (grid, location areas, mobility) served as a
// ServiceFleet behind one OverloadStack, a sampled tracer, the call
// generators of the paced loop, checkpoint writing and all-or-nothing
// restore (DESIGN.md §13), a readiness gate, and the embedded HTTP
// server with every route:
//
//   GET  /metrics /vars /healthz /readyz /traces  the observability
//        surface (support::install_observability_routes); /readyz
//        carries areas_ready / areas_total
//   GET  /fleetz   per-shard JSON drill-down from one registry snapshot
//   POST /locate   the cellular/locate_api.h grammar: empty body or one
//        object = one call (503 when admission sheds it); a JSON array
//        = a batch (200 with per-element "admitted"); "area" routes a
//        call; malformed bodies get 400 with a JSON error
//
// The clock is a dependency: the daemon passes the steady clock, tests a
// support::ManualClock. The process around the node (flags, signals,
// --port-file, the paced loop, the summary line) stays in
// tools/confcall_serve.cpp.
//
// Threading: one mutex serializes every fleet dispatch (step, POST
// /locate, checkpoints, restore) with the node's rng and generators;
// parallelism happens INSIDE a dispatch, across the fleet's shard lanes.
// Registry, tracer and admission are internally locked, so the scrape
// routes never take it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cellular/events.h"
#include "cellular/mobility.h"
#include "cellular/service_fleet.h"
#include "cellular/simulator.h"
#include "cellular/topology.h"
#include "prob/rng.h"
#include "support/http.h"
#include "support/metrics.h"
#include "support/overload.h"
#include "support/state_io.h"
#include "support/trace.h"

namespace confcall::cellular {

/// confcall_serve's serving flags, one field per flag.
struct ServingOptions {
  std::uint16_t port = 0;   ///< --port (0 = ephemeral)
  std::size_t workers = 1;  ///< --workers (HTTP event loops)
  /// --shards: 0 = one shard over one area, else N lanes.
  std::size_t shards = 0;
  /// --fleet-areas: 0 = 4 per shard with --shards, else 1.
  std::size_t fleet_areas = 0;
  std::size_t trace_every = 64;  ///< --trace-every (0 = no tracer)
  std::size_t trace_capacity = 2048;
  /// --slo-p99-ms: 0 leaves the static admission thresholds in charge.
  std::uint64_t slo_p99_ms = 0;
  std::uint64_t control_period_ms = 1000;
  bool metrics_exemplars = false;
  std::string state_in{};   ///< checkpoint to restore at start-up
  std::string state_out{};  ///< checkpoint target (grid and drain)
  /// Checkpoint period on the clock (0 = only at drain).
  std::uint64_t checkpoint_every_ms = 0;
};

/// One serving process's state and routes; not copyable or movable (the
/// route handlers hold `this`).
class ServingNode {
 public:
  /// Builds the whole node; nothing listens until start(). `clock` must
  /// outlive the node. Throws std::invalid_argument on an invalid
  /// config, or on --slo-p99-ms without admission control.
  ServingNode(SimConfig config, ServingOptions options,
              const support::ClockSource& clock);
  ServingNode(const ServingNode&) = delete;
  ServingNode& operator=(const ServingNode&) = delete;

  /// Binds and starts the HTTP server (see HttpServer::start).
  void start() { server_.start(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

  /// Warm restart from ServingOptions::state_in, or a cold start: /readyz
  /// answers 503 through restore and warm-up, then 200. The warm-up is
  /// one ServiceFleet::step_all(warmup_steps) dispatch under the sim
  /// mutex, so a POST /locate arriving meanwhile waits until every area
  /// has run every warm-up step. A checkpoint
  /// restores only when the fleet AND (with SLO control) the controller
  /// sections all validate; otherwise nothing is committed, the cause is
  /// counted in confcall_state_restore_total{result} and warm-up runs.
  /// Returns the "state: ..." line to log, empty without state_in.
  std::string restore_or_warm_up();

  /// One paced-loop step: move everyone in every area, then maybe serve
  /// one arriving call (areas round-robin), then poll the SLO
  /// controller's period grid.
  void step();

  /// Writes a checkpoint when a checkpoint-period boundary has passed on
  /// the clock since the last one. Returns true when one was written.
  bool poll_checkpoint();

  /// Graceful drain: /readyz drops to 503, the server stops (accepted
  /// connections are still answered), and the final checkpoint is cut.
  void drain();

  [[nodiscard]] support::MetricRegistry& registry() noexcept {
    return registry_;
  }
  [[nodiscard]] const ServiceFleet& fleet() const noexcept { return fleet_; }
  [[nodiscard]] const OverloadStack& overload() const noexcept {
    return overload_;
  }
  [[nodiscard]] const support::SamplingTracer* tracer() const noexcept {
    return tracer_.get();
  }
  [[nodiscard]] const support::HttpServer& server() const noexcept {
    return server_;
  }
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return checkpoints_metric_.value();
  }

 private:
  /// Counts the arrival and asks the overload stack; false = shed (the
  /// admission controller counts those).
  bool admit(std::size_t participants, LocationService::LocateContext& context);
  [[nodiscard]] bool restore_sections(const support::StateBundle& bundle);
  bool write_checkpoint();
  [[nodiscard]] std::size_t areas_ready(support::Readiness phase) const;
  void install_routes();
  [[nodiscard]] support::HttpResponse fleetz() const;
  [[nodiscard]] support::HttpResponse locate(const support::HttpRequest& http);

  const SimConfig config_;
  const ServingOptions options_;
  const support::ClockSource& clock_;

  const GridTopology grid_;
  const LocationAreas areas_;
  const MarkovMobility mobility_;
  prob::Rng rng_;
  support::MetricRegistry registry_;
  std::unique_ptr<support::SamplingTracer> tracer_;
  OverloadStack overload_;
  ServiceFleet fleet_;
  const CallGenerator calls_;
  /// Forced arrivals for POST /locate: same group-size law, rate 1.
  const CallGenerator forced_calls_;
  std::optional<BurstyCallGenerator> bursty_;

  support::Counter steps_metric_;
  support::Counter arrivals_metric_;
  support::Counter checkpoints_metric_;
  support::Counter checkpoint_failed_metric_;
  support::Gauge checkpoint_bytes_metric_;

  std::mutex sim_mutex_;
  support::ReadinessGate readiness_;
  std::uint64_t area_rotor_ = 0;
  std::uint64_t next_checkpoint_ns_ = 0;

  /// Last member: its handlers read everything above, so it stops (in
  /// its destructor) first.
  support::HttpServer server_;
};

}  // namespace confcall::cellular
