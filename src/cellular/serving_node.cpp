#include "cellular/serving_node.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "cellular/locate_api.h"
#include "support/json.h"
#include "support/slo_controller.h"
#include "support/state_io.h"
#include "support/text.h"

namespace confcall::cellular {

namespace {

SimConfig validated(SimConfig config) {
  config.validate();
  return config;
}

/// The scenario's overload config with the SLO controller taken from the
/// flags: --slo-p99-ms alone decides whether one runs.
OverloadConfig serving_overload(const SimConfig& config,
                                const ServingOptions& options) {
  OverloadConfig overload = config.overload;
  overload.slo.enabled = options.slo_p99_ms > 0;
  if (!overload.slo.enabled) return overload;
  if (!overload.enabled) {
    throw std::invalid_argument(
        "--slo-p99-ms needs a scenario with admission control "
        "(e.g. overloaded-urban)");
  }
  overload.slo.target_p99_ns = options.slo_p99_ms * 1'000'000ULL;
  overload.slo.control_period_ns = options.control_period_ms * 1'000'000ULL;
  return overload;
}

}  // namespace

ServingNode::ServingNode(SimConfig config, ServingOptions options,
                         const support::ClockSource& clock)
    : config_(validated(std::move(config))),
      options_(std::move(options)),
      clock_(clock),
      grid_(config_.grid_rows, config_.grid_cols, config_.toroidal,
            config_.neighborhood),
      areas_(LocationAreas::tiles(grid_, config_.la_tile_rows,
                                  config_.la_tile_cols)),
      mobility_(grid_, config_.stay_probability),
      rng_(config_.seed),
      // One process-wide tracer shared by every area: root sampling is a
      // single atomic counter (exactly 1-in-N fleet-wide) and span stacks
      // are thread_local, so shard lanes trace safely (trace.h audit).
      tracer_(options_.trace_every == 0
                  ? nullptr
                  : std::make_unique<support::SamplingTracer>(
                        options_.trace_every, options_.trace_capacity,
                        clock)),
      // One stack for every lane: the chain's breakers and telemetry are
      // atomic or internally locked (resilient_planner.h), and the one
      // SLO controller senses sum_by("confcall_locate_rounds"), which is
      // invariant under resharding (the E21 gate).
      overload_(serving_overload(config_, options_), clock, &registry_),
      fleet_(grid_, areas_, mobility_,
             [this] {
               LocationService::Config service = config_.service_config();
               service.tracer = tracer_.get();
               overload_.configure(service);
               return service;
             }(),
             // Every area starts from the same cells; divergence comes
             // from the fleet's per-area mobility substreams.
             scatter_users(grid_, config_.num_users, rng_),
             FleetConfig{
                 .num_shards = options_.shards == 0 ? 1 : options_.shards,
                 .num_areas = options_.fleet_areas > 0 ? options_.fleet_areas
                              : options_.shards > 0    ? options_.shards * 4
                                                       : 1,
                 .seed = config_.seed,
                 .registry = &registry_,
                 .pin_threads = true,
                 .faults = config_.faults}),
      calls_(config_.call_rate, config_.num_users, config_.group_min,
             config_.group_max),
      forced_calls_(1.0, config_.num_users, config_.group_min,
                    config_.group_max),
      steps_metric_(registry_.counter("confcall_serve_steps_total",
                                      "Locate-loop steps the daemon ran")),
      arrivals_metric_(registry_.counter(
          "confcall_serve_calls_arrived_total",
          "Conference-call arrivals (loop traffic plus POST /locate)")),
      checkpoints_metric_(
          registry_.counter("confcall_state_checkpoints_total",
                            "State checkpoints written successfully")),
      checkpoint_failed_metric_(
          registry_.counter("confcall_state_checkpoint_failed_total",
                            "State checkpoint writes that failed (I/O)")),
      checkpoint_bytes_metric_(
          registry_.gauge("confcall_state_checkpoint_bytes",
                          "Size of the last checkpoint file written")),
      server_(support::HttpServerOptions{.port = options_.port,
                                         .workers = options_.workers},
              &registry_) {
  if (config_.burst.enabled) {
    bursty_.emplace(config_.burst, config_.num_users, config_.group_min,
                    config_.group_max);
  }
  install_routes();
}

bool ServingNode::admit(std::size_t participants,
                        LocationService::LocateContext& context) {
  arrivals_metric_.inc();
  return overload_.admit(participants, context) !=
         support::AdmissionController::Decision::kShed;
}

void ServingNode::step() {
  std::lock_guard<std::mutex> lock(sim_mutex_);
  fleet_.step_all();
  steps_metric_.inc();
  const CallEvent event =
      bursty_ ? bursty_->maybe_call(rng_) : calls_.maybe_call(rng_);
  if (!event.participants.empty()) {
    ServiceFleet::Request request;
    request.area = area_rotor_++ % fleet_.num_areas();
    request.users = event.participants;
    if (admit(request.users.size(), request.context)) {
      (void)fleet_.locate_many({&request, 1});
    }
  }
  // Controller steps land on the clock's period grid; polling it every
  // step is one clock read when no boundary passed.
  if (overload_.slo() != nullptr) (void)overload_.slo()->maybe_step();
}

bool ServingNode::write_checkpoint() {
  support::StateBundle bundle;
  {
    std::lock_guard<std::mutex> lock(sim_mutex_);
    fleet_.add_state_sections(bundle);
  }
  if (const support::SloController* slo = overload_.slo()) {
    bundle.add(support::SloController::kStateSection,
               support::SloController::kStateVersion, slo->save_state());
  }
  try {
    const std::size_t bytes =
        support::save_state_file(options_.state_out, bundle);
    checkpoints_metric_.inc();
    checkpoint_bytes_metric_.set(static_cast<double>(bytes));
    return true;
  } catch (const std::exception& error) {
    // A full disk must degrade durability, never serving.
    checkpoint_failed_metric_.inc();
    const std::string line =
        std::string("confcall_serve: checkpoint failed: ") + error.what() +
        "\n";
    (void)std::fwrite(line.data(), 1, line.size(), stderr);
    return false;
  }
}

bool ServingNode::poll_checkpoint() {
  // Checkpoints land on a fixed period grid: however late a step polls,
  // the next boundary stays a multiple of the period.
  const std::uint64_t period_ns = options_.checkpoint_every_ms * 1'000'000ULL;
  if (period_ns == 0) return false;
  const std::uint64_t now = clock_.now_ns();
  if (now < next_checkpoint_ns_) return false;
  while (next_checkpoint_ns_ <= now) next_checkpoint_ns_ += period_ns;
  return write_checkpoint();
}

bool ServingNode::restore_sections(const support::StateBundle& bundle) {
  std::lock_guard<std::mutex> lock(sim_mutex_);
  support::SloController* slo = overload_.slo();
  if (slo == nullptr) return fleet_.restore_state_sections(bundle);
  // Both halves restore all-or-nothing on their own. The controller goes
  // first and gets its cold bytes back if the fleet then rejects, so the
  // pair commits together or not at all (actuators resume at their
  // converged point only with the fleet state they converged on).
  const support::StateSection* section =
      bundle.find(support::SloController::kStateSection);
  const std::string cold = slo->save_state();
  if (section == nullptr ||
      !slo->restore_state(section->payload, section->version)) {
    return false;
  }
  if (fleet_.restore_state_sections(bundle)) return true;
  (void)slo->restore_state(cold, support::SloController::kStateVersion);
  return false;
}

std::string ServingNode::restore_or_warm_up() {
  // The server may already answer, but /readyz holds 503 through restore
  // and warm-up so a balancer does not route to a half-warm backend.
  std::string line;
  bool restored = false;
  if (!options_.state_in.empty()) {
    readiness_.set(support::Readiness::kRestoring);
    const support::StateLoadResult loaded =
        support::load_state_file(options_.state_in);
    std::string result;
    if (!loaded.ok()) {
      result = support::state_load_status_name(loaded.status);
      line = "cold start (" + result + ": " + loaded.message + ")";
      result = "cold_" + result;
    } else if (restore_sections(loaded.bundle)) {
      restored = true;
      result = "restored";
      line = "restored from " + options_.state_in + " (" +
             std::to_string(loaded.bundle.sections().size()) + " sections)";
    } else {
      result = "cold_section_mismatch";
      line = "cold start (section missing, version skew, or shape mismatch)";
    }
    registry_
        .counter("confcall_state_restore_total",
                 "Startup state-restore attempts by result: restored, "
                 "or the cold-start cause",
                 {{"result", result}})
        .inc();
    line = "state: " + line;
  }
  if (!restored) {
    // A valid checkpoint stands in for the whole warm-up: movement only,
    // unpaced, so every location database is warm before the first
    // routed locate. One area-major dispatch under one lock hold: a
    // POST /locate arriving meanwhile waits for the whole warm-up.
    readiness_.set(support::Readiness::kWarmup);
    std::lock_guard<std::mutex> lock(sim_mutex_);
    fleet_.step_all(config_.warmup_steps);
  }
  readiness_.set(support::Readiness::kReady);
  next_checkpoint_ns_ =
      clock_.now_ns() + options_.checkpoint_every_ms * 1'000'000ULL;
  return line;
}

void ServingNode::drain() {
  readiness_.set(support::Readiness::kDraining);
  server_.stop();
  if (!options_.state_out.empty()) (void)write_checkpoint();
}

std::size_t ServingNode::areas_ready(support::Readiness phase) const {
  // All areas once ready, the restore's progress while one is in flight,
  // none before.
  if (phase == support::Readiness::kRestoring) return fleet_.areas_restored();
  return phase == support::Readiness::kReady ||
                 phase == support::Readiness::kDraining
             ? fleet_.num_areas()
             : 0;
}

void ServingNode::install_routes() {
  support::install_observability_routes(
      server_, &registry_, tracer_.get(), overload_.admission(),
      overload_.slo(), &readiness_,
      {.exemplars = options_.metrics_exemplars, .readyz_detail = [this] {
         return "\"areas_ready\": " +
                std::to_string(areas_ready(readiness_.state())) +
                ", \"areas_total\": " + std::to_string(fleet_.num_areas());
       }});
  server_.handle("GET", "/fleetz",
                 [this](const support::HttpRequest&) { return fleetz(); });
  server_.handle("POST", "/locate", [this](const support::HttpRequest& http) {
    return locate(http);
  });
}

support::HttpResponse ServingNode::fleetz() const {
  // ONE consistent registry snapshot rendered as per-shard JSON: the
  // registry is the fleet's one record, and a snapshot is a race-free cut
  // the dispatcher never has to pause for.
  const support::RegistrySnapshot snap = registry_.snapshot();
  std::string body;
  const auto open_member = [&body](const char* separator, const char* key) {
    body += separator;
    body += '"';
    body += key;
    body += "\": ";
  };
  // `"key": value` of one series: a counter's count, a gauge's level, a
  // histogram's p99; 0 when the series does not exist (yet).
  const auto field = [&snap, &body, &open_member](
                         const char* key, std::string_view name,
                         const support::MetricLabels& labels = {},
                         const char* separator = ", ") {
    open_member(separator, key);
    const support::MetricSnapshot* metric = snap.find(name, labels);
    if (metric == nullptr) {
      body += '0';
    } else if (metric->type == support::MetricType::kCounter) {
      support::append_uint(body, metric->counter_value);
    } else if (metric->type == support::MetricType::kGauge) {
      support::append_uint(body,
                           static_cast<std::uint64_t>(metric->gauge_value));
    } else {
      support::append_double_g(body, metric->histogram.quantile(0.99));
    }
  };
  // `"key": n` of a counter family summed over its shard labels.
  const auto total = [&snap, &body, &open_member](
                         const char* key, std::string_view name,
                         const char* separator = ", ") {
    const std::optional<support::MetricSnapshot> summed = snap.sum_by(name);
    open_member(separator, key);
    support::append_uint(body, summed ? summed->counter_value : 0);
  };
  const support::Readiness phase = readiness_.state();
  body += "{\"shards\": ";
  support::append_uint(body, fleet_.num_shards());
  body += ", \"areas\": ";
  support::append_uint(body, fleet_.num_areas());
  body += ", \"areas_ready\": ";
  support::append_uint(body, areas_ready(phase));
  body += ", \"phase\": \"";
  body += support::readiness_name(phase);
  body += '"';
  field("dispatches", "confcall_fleet_dispatches_total");
  total("requests", "confcall_locate_calls_total");
  body += ", \"shared_plan\": {";
  total("hits", "confcall_locate_plan_cache_hits_total", "");
  total("misses", "confcall_locate_plan_cache_misses_total");
  field("entries", "confcall_fleet_shared_plan_entries");
  field("evictions", "confcall_fleet_shared_plan_evictions_total");
  // Fixed at construction, so readable without the sim mutex.
  body += ", \"capacity\": ";
  support::append_uint(body, fleet_.shared_table().plans.capacity());
  body += "}, \"per_shard\": [";
  for (std::size_t s = 0; s < fleet_.num_shards(); ++s) {
    const support::MetricLabels shard{{"shard", std::to_string(s)}};
    body += s > 0 ? ", {\"shard\": " : "{\"shard\": ";
    support::append_uint(body, s);
    field("tasks", "confcall_fleet_tasks_total", shard);
    field("task_p99_ns", "confcall_fleet_task_ns", shard);
    field("locate_calls", "confcall_locate_calls_total", shard);
    field("plan_cache_hits", "confcall_locate_plan_cache_hits_total", shard);
    field("plan_cache_misses", "confcall_locate_plan_cache_misses_total",
          shard);
    field("rounds_p99", "confcall_locate_rounds", shard);
    // The exemplars bridge the rounds histogram to /traces.
    body += ", \"exemplar_trace_ids\": [";
    const char* separator = "\"";
    if (const support::MetricSnapshot* rounds =
            snap.find("confcall_locate_rounds", shard)) {
      for (const support::Exemplar& exemplar : rounds->histogram.exemplars) {
        if (!exemplar.valid()) continue;
        body += separator;
        support::append_hex16(body, exemplar.trace_id);
        body += '"';
        separator = ", \"";
      }
    }
    body += "]}";
  }
  body += "]}\n";
  return {.content_type = "application/json", .body = std::move(body)};
}

support::HttpResponse ServingNode::locate(const support::HttpRequest& http) {
  // Parse outside the sim mutex: malformed input never touches (or
  // blocks) the serving state.
  LocateApiRequest api;
  try {
    api = parse_locate_body(http.body, config_.num_users, fleet_.num_areas());
  } catch (const std::exception& error) {
    return {.status = 400,
            .content_type = "application/json",
            .body = "{\"error\": \"" + support::json_escape(error.what()) +
                    "\"}\n"};
  }

  std::lock_guard<std::mutex> lock(sim_mutex_);
  // One admission pass over the whole batch, then a single fleet
  // dispatch over the admitted calls. Each admitted call moves into
  // `dispatch` once; the reply needs only every call's verdict and size.
  struct Verdict {
    bool admitted = false;
    std::size_t participants = 0;
  };
  std::vector<Verdict> verdicts;
  verdicts.reserve(api.calls.size());
  std::vector<ServiceFleet::Request> dispatch;
  dispatch.reserve(api.calls.size());
  for (LocateCallSpec& call : api.calls) {
    ServiceFleet::Request request;
    request.area = call.area;
    request.users = call.users.empty()
                        ? forced_calls_.maybe_call(rng_).participants
                        : std::move(call.users);
    const bool admitted = admit(request.users.size(), request.context);
    verdicts.push_back({admitted, request.users.size()});
    if (admitted) dispatch.push_back(std::move(request));
  }
  const std::vector<LocationService::LocateOutcome> outcomes =
      fleet_.locate_many(dispatch);

  std::string body = api.batch ? "[" : "";
  std::size_t next_outcome = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) body += ", ";
    append_outcome_json(body, verdicts[i].admitted, verdicts[i].participants,
                        verdicts[i].admitted ? &outcomes[next_outcome++]
                                             : nullptr);
  }
  body += api.batch ? "]\n" : "\n";
  // The single-call contract (empty body or one object): 503 on shed.
  return {.status = api.batch || verdicts.front().admitted ? 200 : 503,
          .content_type = "application/json",
          .body = std::move(body)};
}

}  // namespace confcall::cellular
