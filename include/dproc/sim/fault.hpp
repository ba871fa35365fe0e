// Deterministic fault injection: scripted node churn, link faults, and
// registry outages.
//
// A FaultPlan is pure data — a time-ordered script of fault events built
// with fluent helpers (crash_node, partition_link, loss_burst, ...). The
// FaultInjector schedules the plan on the simulation engine and applies
// each event through caller-provided hooks, so this layer stays free of
// network/cluster dependencies: the cluster builder binds the hooks to its
// fabric, registry, and per-node lifecycle handlers.
//
// Everything is deterministic: events fire at scripted virtual times, and
// probabilistic faults (packet-loss bursts) carry their own RNG seed, so
// the same plan over the same workload reproduces the identical trace. An
// empty plan schedules nothing — fault support costs zero events and zero
// allocations when unused, a property the golden-trace test pins.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dproc/sim/engine.hpp"
#include "dproc/util/time.hpp"

namespace dproc::sim {

enum class FaultKind : std::uint8_t {
  kNodeCrash,      // target = node: power-off; packets to/from it vanish
  kNodeRestart,    // target = node: power-on; kernel state starts clean
  kLinkDown,       // target = link: partition, every packet dropped
  kLinkUp,         // target = link: partition heals
  kLinkLossStart,  // target = link, param = drop probability, seed = rng
  kLinkLossStop,   // target = link: loss burst ends
  kRegistryDown,   // channel registry stops answering
  kRegistryUp,     // registry resumes
  kRegistryLeaderKill,  // crash whichever node hosts the leader replica
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  SimTime at;
  FaultKind kind{};
  std::uint32_t target = 0;  // node or link id; unused for registry events
  double param = 0.0;        // loss probability for kLinkLossStart
  std::uint64_t seed = 0;    // RNG seed for kLinkLossStart
};

/// A scripted fault schedule. Helpers append events; the injector replays
/// them in (time, insertion) order.
class FaultPlan {
 public:
  FaultPlan& crash_node(SimTime at, std::uint32_t node);
  FaultPlan& restart_node(SimTime at, std::uint32_t node);
  /// Crash at `at`, restart at `until`.
  FaultPlan& node_outage(SimTime at, SimTime until, std::uint32_t node);

  FaultPlan& partition_link(SimTime at, std::uint32_t link);
  FaultPlan& heal_link(SimTime at, std::uint32_t link);
  /// Repeatedly partitions and heals `link`: down at `from`, toggling every
  /// `half_period`, guaranteed healed at `until`.
  FaultPlan& flap_link(SimTime from, SimTime until, SimDuration half_period,
                       std::uint32_t link);
  /// Random drop with probability `p` on `link` during [from, until).
  FaultPlan& loss_burst(SimTime from, SimTime until, std::uint32_t link,
                        double p, std::uint64_t seed);

  FaultPlan& registry_outage(SimTime from, SimTime until);

  /// Crashes whichever node hosts the *current* registry leader replica —
  /// resolved at fire time, not plan-build time, so the plan composes with
  /// earlier failovers. Requires a replicated registry (the hook is a no-op
  /// otherwise).
  FaultPlan& kill_registry_leader(SimTime at);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

 private:
  std::vector<FaultEvent> events_;
};

/// How the injector acts on the world. Unset hooks make the corresponding
/// fault kinds no-ops (they are still logged as applied).
struct FaultHooks {
  std::function<void(std::uint32_t node, bool down)> node_down;
  std::function<void(std::uint32_t link, bool down)> link_down;
  std::function<void(std::uint32_t link, double p, std::uint64_t seed)>
      link_loss;
  std::function<void(bool down)> registry_down;
  /// Resolves the current leader replica and crashes its host node.
  std::function<void()> registry_leader_kill;
  /// Ground-truth recording: invoked after every fault is applied (before
  /// the observer), so flight recorders can log what was *actually* injected
  /// alongside the symptoms the services observe.
  std::function<void(const FaultEvent&)> record;
};

class FaultInjector {
 public:
  FaultInjector(Engine& engine, FaultHooks hooks)
      : engine_(engine), hooks_(std::move(hooks)) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every event of `plan` on the engine. An empty plan schedules
  /// nothing at all. May be called more than once (plans compose).
  void schedule(const FaultPlan& plan);

  [[nodiscard]] std::size_t scheduled() const { return scheduled_; }
  /// Events applied so far, in application order (the deterministic log).
  [[nodiscard]] const std::vector<FaultEvent>& applied() const {
    return applied_;
  }

 private:
  void apply(const FaultEvent& event);

  Engine& engine_;
  FaultHooks hooks_;
  std::size_t scheduled_ = 0;
  std::vector<FaultEvent> applied_;
};

}  // namespace dproc::sim
